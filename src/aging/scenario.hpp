#pragma once

#include <cstdint>
#include <vector>

#include "src/aging/bti.hpp"
#include "src/aging/stress.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"

namespace agingsim {

/// Binds a netlist to a BTI model plus an extracted stress profile and
/// produces the per-gate delay-degradation overlays that the timing
/// simulators consume. This is the piece that replaces the paper's
/// "Vth drift ... added into the SPICE files during simulation".
class AgingScenario {
 public:
  /// Extracts the stress profile with `stress_patterns` random vectors.
  AgingScenario(const Netlist& netlist, const TechLibrary& tech,
                BtiModel model, std::uint64_t seed = 0x5eed,
                std::size_t stress_patterns = 2000);

  /// Uses a precomputed stress profile (e.g. `analytic_stress` from
  /// aging/prob_propagation.hpp) instead of Monte-Carlo extraction. Throws
  /// std::invalid_argument unless the profile has one `net_p_one` per net
  /// and one `pmos_stress` and `nmos_stress` per gate.
  AgingScenario(const Netlist& netlist, const TechLibrary& tech,
                BtiModel model, StressProfile profile);

  /// Per-gate delay multipliers after `years` of stress (one per gate,
  /// >= 1.0). Rise degradation comes from pMOS NBTI, fall from nMOS PBTI;
  /// the simulator keeps a single delay per gate, so the two are averaged.
  std::vector<double> delay_scales_at(double years) const;

  /// Average dVth (V) across all devices after `years` — drives the
  /// leakage-reduction side of the power model.
  double mean_dvth_at(double years) const;

  const StressProfile& stress() const noexcept { return stress_; }
  const BtiModel& model() const noexcept { return model_; }

 private:
  const Netlist* netlist_;
  const TechLibrary* tech_;
  BtiModel model_;
  StressProfile stress_;
};

}  // namespace agingsim
