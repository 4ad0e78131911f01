#include "src/aging/stress.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/sim/value_sweep.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {

StressProfile estimate_stress(const Netlist& netlist, std::uint64_t seed,
                              std::size_t num_patterns) {
  if (num_patterns == 0) {
    throw std::invalid_argument("estimate_stress: need at least one pattern");
  }
  ValueSweep sweep(netlist);
  Rng rng(seed);
  std::vector<std::uint64_t> words(netlist.num_inputs());
  std::vector<std::uint64_t> ones(netlist.num_nets(), 0);

  for (std::size_t done = 0; done < num_patterns;) {
    const int lanes = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(kBatchLanes), num_patterns - done));
    // Lane l is pattern done + l; draws stay pattern-major, then in input
    // order, so the vectors are the ones a pattern-at-a-time loop applies.
    std::fill(words.begin(), words.end(), 0);
    for (int l = 0; l < lanes; ++l) {
      for (std::uint64_t& w : words) w |= (rng.next() & 1u) << l;
    }
    sweep.step_word(words, lanes);
    for (NetId n = 0; n < netlist.num_nets(); ++n) {
      const LogicWord v = sweep.word(n);
      ones[n] += static_cast<std::uint64_t>(
          std::popcount(v.p0 & ~v.p1 & sweep.lane_mask()));
    }
    done += static_cast<std::size_t>(lanes);
  }

  StressProfile prof;
  prof.net_p_one.resize(netlist.num_nets());
  for (NetId n = 0; n < netlist.num_nets(); ++n) {
    prof.net_p_one[n] = static_cast<double>(ones[n]) /
                        static_cast<double>(num_patterns);
  }
  prof.pmos_stress.resize(netlist.num_gates());
  prof.nmos_stress.resize(netlist.num_gates());
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const double p1 = prof.net_p_one[netlist.gate(g).out];
    prof.pmos_stress[g] = p1;
    prof.nmos_stress[g] = 1.0 - p1;
  }
  return prof;
}

}  // namespace agingsim
