#include "src/sim/timing_sim.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/sim/density_model.hpp"

namespace agingsim {
namespace {

// Shared with the batch kernel's lane loops — same literals, or the
// kernel bit-identity guarantee breaks (see density_model.hpp).
using density_model::kBlockedPass;
using density_model::kDensityClamp;
using density_model::kInputCapFf;
using density_model::kStableBlock;

// Everything here accumulates per *step*, never per gate — the per-gate
// loop stays metric-free so an enabled run stays close to a disabled one.
struct SimMetrics {
  const obs::Counter& steps_dense = obs::counter("sim.steps_dense");
  const obs::Counter& aging_swaps = obs::counter("sim.aging_swaps");
  const obs::Counter& overlay_swaps = obs::counter("sim.overlay_swaps");
};

const SimMetrics& sim_metrics() {
  static const SimMetrics m;
  return m;
}

}  // namespace

SimKernel resolve_kernel(SimKernel) noexcept { return SimKernel::kBatch; }

const char* kernel_name(SimKernel kernel) noexcept {
  return kernel == SimKernel::kBatch ? "batch" : "auto";
}

TimingSim::TimingSim(const Netlist& netlist, const TechLibrary& tech,
                     std::span<const double> gate_delay_scale)
    : netlist_(&netlist), tech_(&tech) {
  base_delay_ps_.resize(netlist.num_gates());
  set_aging(gate_delay_scale);
  value_.assign(netlist.num_nets(), Logic::kX);
  arrival_.assign(netlist.num_nets(), 0.0);
  changed_.assign(netlist.num_nets(), 0);
  density_.assign(netlist.num_nets(), 0.0f);
  net_epoch_.assign(netlist.num_nets(), 0);
}

void TimingSim::set_aging(std::span<const double> gate_delay_scale) {
  if (!gate_delay_scale.empty() &&
      gate_delay_scale.size() != netlist_->num_gates()) {
    throw std::invalid_argument(
        "TimingSim::set_aging: need one multiplier per gate");
  }
  aging_scale_.assign(gate_delay_scale.begin(), gate_delay_scale.end());
  rebuild_delays();
  sim_metrics().aging_swaps.add();
}

void TimingSim::set_fault_overlay(const FaultOverlay* overlay) {
  if (overlay != nullptr && overlay->num_gates() != netlist_->num_gates()) {
    throw std::invalid_argument(
        "TimingSim::set_fault_overlay: overlay sized for a different "
        "netlist");
  }
  overlay_ = overlay;
  rebuild_delays();
  sim_metrics().overlay_swaps.add();
}

void TimingSim::rebuild_delays() {
  for (GateId g = 0; g < netlist_->num_gates(); ++g) {
    double d = tech_->delay(netlist_->gate(g).kind);
    if (!aging_scale_.empty()) d *= aging_scale_[g];
    if (overlay_ != nullptr) d *= overlay_->delay_factor(g);
    base_delay_ps_[g] = d;
  }
}

void TimingSim::load_bus(std::span<Logic> pattern_buffer, std::uint64_t value,
                         int width, int first_input) const {
  if (first_input + width > static_cast<int>(netlist_->num_inputs()) ||
      static_cast<std::size_t>(first_input + width) > pattern_buffer.size()) {
    throw std::invalid_argument("TimingSim::load_bus: bus out of range");
  }
  for (int i = 0; i < width; ++i) {
    pattern_buffer[static_cast<std::size_t>(first_input + i)] =
        logic_from_bool(((value >> i) & 1u) != 0);
  }
}

template <bool kOverlay, bool kTransient>
void TimingSim::evaluate_gate(GateId g, StepResult& result) {
  const Netlist& nl = *netlist_;
  const Gate& gate = nl.gate(g);
  const auto ins = nl.gate_inputs(g);
  std::array<Logic, 4> in_vals;
  for (std::size_t k = 0; k < ins.size(); ++k) in_vals[k] = value_[ins[k]];

  const Logic prev = value_[gate.out];
  Logic next = eval_cell(gate.kind, {in_vals.data(), ins.size()}, prev);
  if constexpr (kOverlay) {
    // Fault overlay: a stuck-at forces the output unconditionally; a
    // transient armed for this cycle inverts whatever would have settled
    // (X stays X — a strike cannot conjure a known value).
    const Logic stuck = overlay_->stuck_value(g);
    if (stuck != Logic::kX) next = stuck;
    if constexpr (kTransient) {
      if (overlay_->transient_fires(g, step_index_)) next = logic_not(next);
    }
  }

  const auto pass_weight = [this](NetId net, Logic v, Logic controlling) {
    if (v == controlling) return net_changed(net) ? kBlockedPass : kStableBlock;
    if (is_known(v)) return 1.0f;
    return 0.5f;
  };

  // Glitch/activity estimate for this gate, independent of whether the
  // *final* value changed. Every formula is linear in the input densities,
  // so a gate whose fanin is entirely stable computes exactly 0 — which is
  // what lets the batch kernel skip word-idle gates without changing any
  // result.
  float density = 0.0f;
  switch (gate.kind) {
    case CellKind::kBuf:
    case CellKind::kInv:
      density = net_density(ins[0]);
      break;
    case CellKind::kXor2:
    case CellKind::kXnor2:
      density = net_density(ins[0]) + net_density(ins[1]);
      break;
    case CellKind::kAnd2:
    case CellKind::kNand2:
    case CellKind::kOr2:
    case CellKind::kNor2: {
      const Logic ctrl = (gate.kind == CellKind::kAnd2 ||
                          gate.kind == CellKind::kNand2)
                             ? Logic::kZero
                             : Logic::kOne;
      density = net_density(ins[0]) * pass_weight(ins[1], in_vals[1], ctrl) +
                net_density(ins[1]) * pass_weight(ins[0], in_vals[0], ctrl);
      break;
    }
    case CellKind::kAnd3:
    case CellKind::kOr3: {
      const Logic ctrl =
          (gate.kind == CellKind::kAnd3) ? Logic::kZero : Logic::kOne;
      for (std::size_t k = 0; k < 3; ++k) {
        float w = 1.0f;
        for (std::size_t j = 0; j < 3; ++j) {
          if (j != k) w *= pass_weight(ins[j], in_vals[j], ctrl);
        }
        density += net_density(ins[k]) * w;
      }
      break;
    }
    case CellKind::kMux2: {
      const std::size_t sel_k = (in_vals[2] == Logic::kOne) ? 1u : 0u;
      const float unselected =
          net_changed(ins[2]) ? kBlockedPass : kStableBlock;
      // Select edges reach the output only while the two data inputs
      // disagree (a mux with equal data is select-insensitive — exact).
      const float sel_visible = (in_vals[0] != in_vals[1]) ? 1.0f : 0.0f;
      density = sel_visible * net_density(ins[2]) + net_density(ins[sel_k]) +
                unselected * net_density(ins[1 - sel_k]);
      break;
    }
    case CellKind::kTbuf:
      if (in_vals[1] == Logic::kOne) {
        // Enable edges matter only when the newly driven value differs
        // from the kept one; count them at half weight.
        density = net_density(ins[0]) + 0.5f * net_density(ins[1]);
      } else {
        // Disabled: the keeper is frozen; only the disable edge itself
        // moves charge.
        density = kBlockedPass * net_density(ins[1]);
      }
      break;
    case CellKind::kTie0:
    case CellKind::kTie1:
    case CellKind::kCount:
      break;
  }

  if (next == prev) {
    const float clamped = std::min(density, kDensityClamp);
    if (clamped == 0.0f) return;  // stable and glitch-free: inert
    net_epoch_[gate.out] = epoch_;
    changed_[gate.out] = 0;
    density_[gate.out] = clamped;
    result.switched_cap_ff += 0.5 * tech_->cap(gate.kind) * clamped;
    return;
  }
  value_[gate.out] = next;
  net_epoch_[gate.out] = epoch_;
  changed_[gate.out] = 1;
  if (is_known(prev) && is_known(next)) {
    ++result.toggles;
    if (density < 1.0f) density = 1.0f;  // the real toggle is an edge too
  }
  density_[gate.out] = std::min(density, kDensityClamp);
  result.switched_cap_ff += 0.5 * tech_->cap(gate.kind) * density_[gate.out];

  // Sensitized arrival: earliest controlling input when the new value is
  // the controlled one, otherwise latest changed input. Stable inputs
  // contribute arrival 0 (they were settled before the step began).
  const auto in_arr = [&](std::size_t k) {
    return net_changed(ins[k]) ? arrival_[ins[k]] : 0.0;
  };
  double arr = 0.0;
  Logic ctrl = Logic::kX;  // controlling input value, if the kind has one
  bool ctrl_makes_out = false;
  switch (gate.kind) {
    case CellKind::kAnd2:
    case CellKind::kAnd3:
      ctrl = Logic::kZero;
      ctrl_makes_out = (next == Logic::kZero);
      break;
    case CellKind::kNand2:
      ctrl = Logic::kZero;
      ctrl_makes_out = (next == Logic::kOne);
      break;
    case CellKind::kOr2:
    case CellKind::kOr3:
      ctrl = Logic::kOne;
      ctrl_makes_out = (next == Logic::kOne);
      break;
    case CellKind::kNor2:
      ctrl = Logic::kOne;
      ctrl_makes_out = (next == Logic::kZero);
      break;
    default:
      break;
  }
  if (ctrl_makes_out) {
    // Earliest input holding the controlling value decides the output.
    double best = -1.0;
    for (std::size_t k = 0; k < ins.size(); ++k) {
      if (in_vals[k] == ctrl) {
        const double a = in_arr(k);
        if (best < 0.0 || a < best) best = a;
      }
    }
    arr = best < 0.0 ? 0.0 : best;
  } else if (gate.kind == CellKind::kMux2) {
    const Logic sel = in_vals[2];
    const std::size_t data_k = (sel == Logic::kOne) ? 1u : 0u;
    arr = in_arr(data_k);
    if (net_changed(ins[2])) arr = std::max(arr, in_arr(2));
  } else if (gate.kind == CellKind::kTbuf) {
    // Only reached when enabled (disabled TBUF holds => next == prev).
    arr = std::max(in_arr(0), in_arr(1));
  } else {
    // Non-controlled settle: latest changed input.
    for (std::size_t k = 0; k < ins.size(); ++k) {
      if (net_changed(ins[k])) arr = std::max(arr, in_arr(k));
    }
  }
  arrival_[gate.out] = arr + base_delay_ps_[g];
  result.settle_ps = std::max(result.settle_ps, arrival_[gate.out]);
}

template <bool kOverlay, bool kTransient>
void TimingSim::sweep(StepResult& result) {
  const GateId n = static_cast<GateId>(netlist_->num_gates());
  for (GateId g = 0; g < n; ++g) {
    evaluate_gate<kOverlay, kTransient>(g, result);
  }
}

StepResult TimingSim::step(std::span<const Logic> input_values) {
  const Netlist& nl = *netlist_;
  if (input_values.size() != nl.num_inputs()) {
    throw std::invalid_argument("TimingSim::step: wrong input count");
  }
  StepResult result;
  ++epoch_;

  // Apply primary inputs (all input transitions land at t = 0). A changed
  // input seeds one transition of density; unchanged inputs are simply not
  // stamped with this epoch, which downstream reads as stable/zero.
  const auto input_nets = nl.input_nets();
  for (std::size_t i = 0; i < input_nets.size(); ++i) {
    const NetId net = input_nets[i];
    const Logic nv = input_values[i];
    if (nv == value_[net]) continue;
    value_[net] = nv;
    arrival_[net] = 0.0;
    net_epoch_[net] = epoch_;
    changed_[net] = 1;
    density_[net] = 1.0f;
    if (is_known(nv)) result.switched_cap_ff += kInputCapFf;
  }

  if (overlay_ == nullptr) {
    sweep<false, false>(result);
  } else if (overlay_->has_transients() &&
             overlay_->transient_fires_on(step_index_)) {
    sweep<true, true>(result);
  } else {
    sweep<true, false>(result);
  }

  for (NetId out : nl.output_nets()) {
    if (net_changed(out)) {
      result.output_settle_ps = std::max(result.output_settle_ps,
                                         arrival_[out]);
    }
  }
  ++step_index_;
  if (obs::metrics_enabled()) sim_metrics().steps_dense.add();
  return result;
}

void TimingSim::install_state(std::span<const Logic> net_values,
                              std::int64_t next_step_index) {
  if (net_values.size() != netlist_->num_nets()) {
    throw std::invalid_argument(
        "TimingSim::install_state: need one value per net");
  }
  value_.assign(net_values.begin(), net_values.end());
  step_index_ = next_step_index;
}

std::uint64_t TimingSim::output_bits() const {
  const auto outs = netlist_->output_nets();
  if (outs.size() > 64) {
    throw std::logic_error("TimingSim::output_bits: more than 64 outputs");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Logic v = value_[outs[i]];
    if (!is_known(v)) {
      throw std::logic_error("TimingSim::output_bits: output " +
                             netlist_->output_name(i) + " is unknown");
    }
    if (logic_to_bool(v)) bits |= (std::uint64_t{1} << i);
  }
  return bits;
}

}  // namespace agingsim
