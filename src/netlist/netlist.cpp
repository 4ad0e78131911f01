#include "src/netlist/netlist.hpp"

#include <stdexcept>
#include <string>

#include "src/lint/structural.hpp"

namespace agingsim {

NetId Netlist::add_input(std::string name) {
  const NetId id = static_cast<NetId>(driver_.size());
  driver_.push_back(-1);
  input_nets_.push_back(id);
  input_names_.push_back(std::move(name));
  return id;
}

NetId Netlist::add_gate(CellKind kind, std::span<const NetId> inputs) {
  const CellTraits& traits = cell_traits(kind);
  if (inputs.size() != static_cast<std::size_t>(traits.num_inputs)) {
    throw std::invalid_argument(std::string("Netlist::add_gate: cell ") +
                                std::string(traits.name) + " expects " +
                                std::to_string(traits.num_inputs) +
                                " inputs, got " +
                                std::to_string(inputs.size()));
  }
  for (NetId in : inputs) {
    if (in >= driver_.size()) {
      throw std::invalid_argument(
          "Netlist::add_gate: input net does not exist yet (nets must be "
          "created before use; this also guarantees acyclicity)");
    }
  }
  const NetId out = static_cast<NetId>(driver_.size());
  const std::uint32_t in_begin = static_cast<std::uint32_t>(pins_.size());
  pins_.insert(pins_.end(), inputs.begin(), inputs.end());
  driver_.push_back(static_cast<std::int32_t>(gates_.size()));
  gates_.push_back(Gate{kind, out, in_begin,
                        static_cast<std::uint16_t>(inputs.size())});
  return out;
}

void Netlist::mark_output(NetId net, std::string name) {
  if (net >= driver_.size()) {
    throw std::invalid_argument("Netlist::mark_output: net does not exist");
  }
  output_nets_.push_back(net);
  output_names_.push_back(std::move(name));
}

std::int64_t Netlist::transistor_count() const noexcept {
  std::int64_t total = 0;
  for (const Gate& g : gates_) total += cell_traits(g.kind).transistor_count;
  return total;
}

std::vector<std::size_t> Netlist::gate_count_by_kind() const {
  std::vector<std::size_t> counts(kNumCellKinds, 0);
  for (const Gate& g : gates_) ++counts[static_cast<std::size_t>(g.kind)];
  return counts;
}

void Netlist::validate() const {
  const std::vector<lint::Diagnostic> diagnostics =
      lint::structural_diagnostics(*this);
  std::size_t errors = 0;
  std::string details;
  for (const lint::Diagnostic& d : diagnostics) {
    if (d.severity != lint::Severity::kError) continue;
    ++errors;
    details += "\n  [" + d.rule + "] " + d.message;
  }
  if (errors != 0) {
    throw std::logic_error("Netlist::validate: " + std::to_string(errors) +
                           " structural violation(s):" + details);
  }
}

}  // namespace agingsim
