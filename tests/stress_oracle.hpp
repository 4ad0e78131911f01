#pragma once

// Scalar reference for estimate_stress: the same seeded vectors stepped one
// pattern at a time through the scalar timing simulator, counting the
// patterns that leave each net at logic 1. The library's word sweep must
// reproduce this profile byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/aging/stress.hpp"
#include "src/netlist/techlib.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::testing_oracle {

inline StressProfile scalar_stress(const Netlist& netlist, std::uint64_t seed,
                                   std::size_t num_patterns) {
  TimingSim sim(netlist, default_tech_library());
  Rng rng(seed);
  std::vector<Logic> pattern(netlist.num_inputs());
  std::vector<std::uint64_t> ones(netlist.num_nets(), 0);
  for (std::size_t p = 0; p < num_patterns; ++p) {
    for (auto& v : pattern) {
      v = logic_from_bool((rng.next() & 1) != 0);
    }
    sim.step(pattern);
    for (NetId n = 0; n < netlist.num_nets(); ++n) {
      if (sim.value(n) == Logic::kOne) ++ones[n];
    }
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

inline bool same_bytes(const std::vector<double>& a,
                       const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// memcmp equality of all three vectors.
inline ::testing::AssertionResult identical_profiles(const StressProfile& a,
                                                     const StressProfile& b) {
  if (!same_bytes(a.net_p_one, b.net_p_one)) {
    return ::testing::AssertionFailure() << "net_p_one differs";
  }
  if (!same_bytes(a.pmos_stress, b.pmos_stress)) {
    return ::testing::AssertionFailure() << "pmos_stress differs";
  }
  if (!same_bytes(a.nmos_stress, b.nmos_stress)) {
    return ::testing::AssertionFailure() << "nmos_stress differs";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace agingsim::testing_oracle
