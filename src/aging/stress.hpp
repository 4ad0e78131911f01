#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace agingsim {

/// Per-gate BTI stress duty factors extracted by Monte-Carlo simulation.
///
/// In a static CMOS gate the pull-up pMOS devices conduct (and sit under
/// negative gate bias, i.e. NBTI stress) while the output is high; the
/// pull-down nMOS devices are under PBTI stress while the output is low.
/// So to first order:  S_pmos = P(out = 1),  S_nmos = P(out = 0).
struct StressProfile {
  std::vector<double> net_p_one;      ///< per net: probability of logic 1
  std::vector<double> pmos_stress;    ///< per gate: NBTI duty factor
  std::vector<double> nmos_stress;    ///< per gate: PBTI duty factor
};

/// Estimates signal probabilities by driving the netlist with `num_patterns`
/// uniform random input vectors (seeded, reproducible) and counting, per
/// net, the patterns that leave it at logic 1. The vectors are applied in
/// sequence from power-up X, 64 per word of a values-only logic sweep
/// (sim/value_sweep.hpp), so tri-state keepers hold their last driven
/// value from one vector to the next exactly as in a pattern-at-a-time
/// simulation. Throws std::invalid_argument if `num_patterns` is 0.
StressProfile estimate_stress(const Netlist& netlist, std::uint64_t seed,
                              std::size_t num_patterns);

}  // namespace agingsim
