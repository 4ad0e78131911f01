#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/netlist/logic.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"

namespace agingsim {

/// Kept for the benchmark harness, which reports the kernel its defaults
/// resolve to: every trace runs the batch kernel (src/sim/batch_sim.hpp),
/// so kAuto resolves to kBatch.
enum class SimKernel : std::uint8_t { kAuto = 0, kBatch };

SimKernel resolve_kernel(SimKernel requested) noexcept;

const char* kernel_name(SimKernel kernel) noexcept;

/// Outcome of applying one input pattern.
struct StepResult {
  /// Time (ps) at which the last *primary output* settles, i.e. the path
  /// delay of this operation. 0 if no output changed. This is the quantity
  /// the Razor flip-flops compare against the cycle period.
  double output_settle_ps = 0.0;
  /// Time (ps) at which the last net anywhere settles (>= output_settle_ps).
  double settle_ps = 0.0;
  /// Number of gate outputs that settled to a new value (0<->1).
  std::uint64_t toggles = 0;
  /// Effective switched capacitance (fF) of this transition, including the
  /// glitch estimate — drives the dynamic-energy model. Computed by
  /// transition-density propagation (Najm-style): every changed primary
  /// input seeds one transition, each gate passes its inputs' densities
  /// weighted by how often the other inputs let edges through, and XOR
  /// trees sum densities. This is what makes deep carry-save arrays (the
  /// plain AM) expensive and frozen bypassed columns free, reproducing the
  /// paper's power ordering (AM > VL-bypassing > FL-bypassing).
  double switched_cap_ff = 0.0;
};

/// Per-pattern functional + timing simulator: the single-step API and the
/// scalar oracle the 64-lane batch kernel (src/sim/batch_sim.hpp) is
/// differentially tested against.
///
/// This is the substitute for the paper's Nanosim transistor-level timing
/// runs. Each `step()` applies a new input pattern (a transition from the
/// previously applied one) and settles the netlist in one topological sweep
/// over every gate, computing the new output value and the *sensitized*
/// arrival time of each:
///
///  - a net whose value does not change is stable and contributes neither
///    delay nor switching energy (transition pruning, zero-delay/glitch-free
///    activity model);
///  - when a gate's output settles to a value fixed by a controlling input
///    (0 on an AND, 1 on an OR, ...), the arrival is the *earliest*
///    controlling input, not the latest input — this short-circuit is what
///    makes bypassed columns/rows fast and is the physical mechanism behind
///    the paper's Figs. 5-6 delay distributions;
///  - disabled tri-state buffers hold their previous value (bus keeper), so
///    a bypassed full adder neither toggles nor delays anything.
class TimingSim {
 public:
  /// The only step kernel: a full topological sweep. Kept as a named mode
  /// because the benchmark harness selects it explicitly.
  enum class Mode { kDense };

  /// `gate_delay_scale`, if non-empty, is a per-gate delay multiplier (aging
  /// overlay); it is copied and can be replaced later with `set_aging()`.
  TimingSim(const Netlist& netlist, const TechLibrary& tech,
            std::span<const double> gate_delay_scale = {});

  /// Replaces the per-gate aging multipliers (empty = fresh circuit).
  void set_aging(std::span<const double> gate_delay_scale);

  /// Installs (or, with nullptr, removes) a fault overlay. The overlay is
  /// consulted during every subsequent `step()`: stuck-at faults force the
  /// affected gate outputs, transients invert them on their armed cycle
  /// (matched against `steps()`), and delay-outlier factors are folded into
  /// the per-gate delays on top of the aging overlay. The shared netlist is
  /// never mutated, so many simulators with different overlays can run over
  /// one netlist concurrently. The overlay must outlive its installation.
  /// Throws std::invalid_argument if the overlay was sized for a different
  /// netlist.
  void set_fault_overlay(const FaultOverlay* overlay);
  const FaultOverlay* fault_overlay() const noexcept { return overlay_; }

  /// Number of `step()` calls performed so far — the cycle count transient
  /// faults are matched against.
  std::int64_t steps() const noexcept { return step_index_; }

  /// Applies `input_values` (one per primary input, in input order) and
  /// settles the netlist. The first call establishes the power-up state (all
  /// nets transition from X); its timing numbers are still well defined.
  StepResult step(std::span<const Logic> input_values);

  /// Overwrites every net value and the step counter in one call, as if the
  /// simulator had just settled `next_step_index` patterns and left the
  /// netlist holding `net_values`. The batch kernel's guard-margin replay
  /// uses this to reconstruct the scalar state "as of lane k-1" and re-run
  /// lane k through this exact kernel: a step() from an installed state is
  /// bit-identical to the same step in an uninterrupted scalar stream,
  /// because a step depends only on the net values, the delays, and the
  /// step index (per-step density/arrival scratch is epoch-gated, so no
  /// stale data survives the install). Throws std::invalid_argument on a
  /// value count mismatch.
  void install_state(std::span<const Logic> net_values,
                     std::int64_t next_step_index);

  /// Applies an unsigned pattern to an input bus laid out LSB-first starting
  /// at primary-input index `first_input`.
  void load_bus(std::span<Logic> pattern_buffer, std::uint64_t value,
                int width, int first_input) const;

  Logic value(NetId net) const noexcept { return value_[net]; }
  double arrival(NetId net) const noexcept { return arrival_[net]; }

  /// Packs the primary outputs LSB-first into an integer. Throws
  /// std::logic_error if any output is X/Z or there are more than 64 outputs.
  std::uint64_t output_bits() const;

  const Netlist& netlist() const noexcept { return *netlist_; }

 private:
  void rebuild_delays();

  /// Evaluates one gate: value, glitch density, arrival, energy. The
  /// overlay/transient checks are template parameters so step() branches
  /// once, not once per gate.
  template <bool kOverlay, bool kTransient>
  void evaluate_gate(GateId g, StepResult& result);

  template <bool kOverlay, bool kTransient>
  void sweep(StepResult& result);

  /// Epoch-gated reads of the per-step state: a net not stamped with the
  /// current epoch is stable this step (changed = false, density = 0) — no
  /// O(nets) clearing between steps.
  bool net_changed(NetId n) const noexcept {
    return net_epoch_[n] == epoch_ && changed_[n] != 0;
  }
  float net_density(NetId n) const noexcept {
    return net_epoch_[n] == epoch_ ? density_[n] : 0.0f;
  }

  const Netlist* netlist_;
  const TechLibrary* tech_;
  const FaultOverlay* overlay_ = nullptr;
  std::int64_t step_index_ = 0;
  std::uint64_t epoch_ = 0;            // current step's stamp
  std::vector<double> aging_scale_;    // per gate (possibly empty)
  std::vector<double> base_delay_ps_;  // per gate, aging + faults folded in
  std::vector<Logic> value_;           // per net
  std::vector<double> arrival_;        // per net, valid when changed this step
  std::vector<std::uint8_t> changed_;  // per net, valid at net_epoch_ == epoch_
  std::vector<float> density_;         // per net, valid at net_epoch_ == epoch_
  std::vector<std::uint64_t> net_epoch_;  // per net: last stamping step
};

}  // namespace agingsim
