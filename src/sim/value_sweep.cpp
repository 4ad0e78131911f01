#include "src/sim/value_sweep.hpp"

#include <stdexcept>

namespace agingsim {

ValueSweep::ValueSweep(const Netlist& netlist)
    : netlist_(&netlist),
      plane0_(netlist.num_nets(), 0),
      plane1_(netlist.num_nets(), ~std::uint64_t{0}) {}  // X in every lane

void ValueSweep::step_word(std::span<const std::uint64_t> input_bits,
                           int lanes) {
  const Netlist& nl = *netlist_;
  if (input_bits.size() != nl.num_inputs()) {
    throw std::invalid_argument("ValueSweep::step_word: wrong input count");
  }
  if (lanes < 1 || lanes > kBatchLanes) {
    throw std::invalid_argument(
        "ValueSweep::step_word: lanes must be in [1, 64]");
  }
  const std::uint64_t mask =
      lanes == kBatchLanes ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << lanes) - 1;

  const auto input_nets = nl.input_nets();
  for (std::size_t i = 0; i < input_nets.size(); ++i) {
    plane0_[input_nets[i]] = input_bits[i] & mask;
    plane1_[input_nets[i]] = 0;
  }

  // Ascending gate id is a topological order. A tri-state output still
  // holds the previous word here, so its last lane is the keeper value.
  const GateId num_gates = static_cast<GateId>(nl.num_gates());
  for (GateId g = 0; g < num_gates; ++g) {
    const Gate& gate = nl.gate(g);
    const auto ins = nl.gate_inputs(g);
    std::uint64_t ip0[3] = {}, ip1[3] = {};
    for (std::size_t k = 0; k < ins.size(); ++k) {
      ip0[k] = plane0_[ins[k]];
      ip1[k] = plane1_[ins[k]];
    }
    Logic keeper = Logic::kX;
    if (gate.kind == CellKind::kTbuf) {
      keeper = static_cast<Logic>(((plane0_[gate.out] >> (lanes_ - 1)) & 1u) |
                                  (((plane1_[gate.out] >> (lanes_ - 1)) & 1u)
                                   << 1));
    }
    const LogicWord out = detail::eval_cell_word(gate.kind, ip0, ip1, keeper);
    plane0_[gate.out] = out.p0 & mask;
    plane1_[gate.out] = out.p1 & mask;
  }
  lanes_ = lanes;
  lane_mask_ = mask;
}

}  // namespace agingsim
