#pragma once

// Values-only 64-lane logic sweep. Each word carries 64 input patterns as
// two bit-planes per net (the Logic code of word_logic.hpp); one ascending
// gate sweep settles every gate in every lane. There is no arrival,
// transition-density or energy state: this is the cheap path for callers
// that only need logic values — signal probabilities (estimate_stress) and
// netlist equivalence (lint::check_logic_equivalence).

#include <cstdint>
#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sim/word_logic.hpp"

namespace agingsim {

class ValueSweep {
 public:
  /// Every net starts at power-up X (so does every tri-state keeper).
  explicit ValueSweep(const Netlist& netlist);

  /// Settles lanes [0, lanes): `input_bits` holds one word per primary
  /// input (in input order), bit l being that input's known value in lane
  /// l. Lane l is the l-th pattern after the previous word's last lane,
  /// exactly as if the patterns were stepped one at a time: tri-state
  /// keepers carry across lanes and across words. Throws
  /// std::invalid_argument on a wrong input count or lanes outside [1, 64].
  void step_word(std::span<const std::uint64_t> input_bits,
                 int lanes = kBatchLanes);

  /// Values of `net` in the last word; lanes past it read as 0 in both
  /// planes.
  LogicWord word(NetId net) const noexcept {
    return {plane0_[net], plane1_[net]};
  }

  /// Lanes of the last word.
  std::uint64_t lane_mask() const noexcept { return lane_mask_; }

 private:
  const Netlist* netlist_;
  std::vector<std::uint64_t> plane0_;  // per net
  std::vector<std::uint64_t> plane1_;  // per net
  int lanes_ = kBatchLanes;
  std::uint64_t lane_mask_ = ~std::uint64_t{0};
};

}  // namespace agingsim
