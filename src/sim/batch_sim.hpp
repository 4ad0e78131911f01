#pragma once

// 64-lane SWAR batch timing kernel — the production step kernel behind
// every op trace (docs/PERF.md).
//
// One BatchTimingSim consumes patterns 64 at a time ("one word"): lane l of
// every per-net machine word holds the value that net settles to on the
// l-th pattern of the word. A single ascending-gate-id sweep (gate ids are
// a topological order, the same order the scalar kernel uses) evaluates a
// whole word: values move as two bit-planes per net (the 2-bit Logic code:
// plane0 = value bit, plane1 = unknown bit), so AND/OR/NAND/XOR/MUX over
// all 64 lanes cost a handful of word ops. A gate whose fanin word shows no
// activity in any lane is skipped outright.
//
// Timing and energy are NOT approximated. The scalar kernel's sensitized-
// arrival and transition-density recurrences use only selects, min/max, and
// one multiply-add chain per gate — so the batch kernel carries an exact
// float[64] density lane array and double[64] arrival lane array per live
// net and replays the *same per-lane operation order* the scalar kernel
// uses. min/max/select are rounding-free and the mul/add chains are
// evaluated in the identical order (the build compiles with
// -ffp-contract=off so no kernel gains a fused multiply-add the other
// lacks), hence every StepResult field and net value is exactly `==` the
// scalar TimingSim's. tests/batch_kernel_test.cpp and the random-netlist
// cases in tests/fuzz_test.cpp are the differential suites.
//
// Lane state is sized by live range, not net count. A net's lane arrays
// are live from its driver's evaluation to its last reader (primary
// outputs: to the end of the sweep), so nets with disjoint live ranges
// share one lane slot; the changed/active masks live in the slots too.
// Arrival lanes have their own, smaller slot pool: a primary input arrives
// at 0.0, so a gate reading only primary inputs arrives at exactly 0.0 +
// its delay in every lane and needs no arrival slot (docs/PERF.md, "Lane
// slots").
//
// The guard-margin replay (AGINGSIM_BATCH_GUARD_PS) is therefore not a
// correctness crutch but a *runtime self-audit*: lanes whose settled output
// delay lands within the guard of a caller-supplied decision threshold
// (cycle period, 2x period, ...) — exactly the lanes where a wrong bit
// would flip an AHL/Razor decision — are re-run through a real scalar
// TimingSim reconstructed at lane k-1 via TimingSim::install_state, and
// the scalar result replaces (and is checked against) the lane result.
// The replay fraction is reported in sim.batch.* metrics and the bench
// JSON; a mismatch increments sim.batch.audit_mismatches (a tripwire that
// stays 0).
//
// Fault overlays keep scalar semantics: stuck-ats force both planes
// unconditionally, transients invert exactly the lane whose global step
// index matches the armed cycle (X stays X), and delay outliers fold into
// each gate's delay. Overlay/aging swaps force the next word to evaluate
// every gate: a stuck-at can force a gate whose fanin never moves.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/netlist/logic.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/sim/word_logic.hpp"

namespace agingsim {

/// Cumulative counters for one BatchTimingSim (mirrored into the process
/// sim.batch.* metrics when obs is enabled).
struct BatchStats {
  std::uint64_t words = 0;             ///< words swept
  std::uint64_t lanes = 0;             ///< patterns simulated
  std::uint64_t gates_evaluated = 0;   ///< word-granular union-cone evals
  std::uint64_t replayed_lanes = 0;    ///< lanes re-run through the scalar sim
  std::uint64_t audit_mismatches = 0;  ///< replay disagreed (tripwire: 0)

  double replay_fraction() const noexcept {
    return lanes == 0 ? 0.0
                      : static_cast<double>(replayed_lanes) /
                            static_cast<double>(lanes);
  }
};

class BatchTimingSim {
 public:
  /// Same construction contract as TimingSim: `gate_delay_scale`, if
  /// non-empty, is the per-gate aging multiplier table (copied).
  BatchTimingSim(const Netlist& netlist, const TechLibrary& tech,
                 std::span<const double> gate_delay_scale = {});

  /// Replaces the aging multipliers; the next word re-evaluates every
  /// gate.
  void set_aging(std::span<const double> gate_delay_scale);

  /// Installs (nullptr: removes) a fault overlay; scalar semantics, see
  /// TimingSim::set_fault_overlay. The overlay must outlive its use here.
  void set_fault_overlay(const FaultOverlay* overlay);
  const FaultOverlay* fault_overlay() const noexcept { return overlay_; }

  /// Patterns consumed so far — the global step index transient-fault
  /// cycles are matched against (lane l of the next word is step
  /// steps() + l).
  std::int64_t steps() const noexcept { return step_base_; }

  /// Arms the scalar-replay audit: a lane whose output_settle_ps lands
  /// within `guard_ps` of any threshold is replayed through the scalar
  /// kernel. Empty thresholds or guard_ps <= 0 disables replay (and frees
  /// the scalar simulator). The thresholds are copied.
  void set_timing_audit(std::span<const double> thresholds_ps,
                        double guard_ps);

  /// Evaluates lanes [0, lanes) in one sweep. `input_bits` holds one word
  /// per primary input (in input order): bit l is the value that input
  /// takes on lane l. All input lanes are known 0/1 — operands come from
  /// registers, exactly like TimingSim::load_bus patterns. Returns one
  /// StepResult per lane, each exactly what the corresponding scalar
  /// step() would have returned; the span is valid until the next call.
  std::span<const StepResult> step_word(
      std::span<const std::uint64_t> input_bits, int lanes = kBatchLanes);

  /// Value of `net` as it stood after lane `lane` of the last word.
  Logic lane_value(NetId net, int lane) const;

  /// Primary outputs of lane `lane` of the last word, packed LSB-first.
  /// Throws std::logic_error like TimingSim::output_bits on X/Z outputs.
  std::uint64_t output_bits(int lane) const;

  /// Packs an unsigned value's bit `i` into `input_bits[first_input + i]`
  /// at lane `lane` (the word analogue of TimingSim::load_bus).
  void load_bus_lane(std::span<std::uint64_t> input_bits, std::uint64_t value,
                     int width, int first_input, int lane) const;

  const BatchStats& stats() const noexcept { return stats_; }

  /// Heap bytes of the per-net, per-gate and lane-slot state (excluding
  /// the scalar audit simulator) — the memory model of docs/PERF.md.
  std::size_t state_bytes() const noexcept;
  const Netlist& netlist() const noexcept { return *netlist_; }

  /// Name of the lane-loop backend selected at runtime ("avx2" when the CPU
  /// supports it and the build carries the AVX2 translation unit, else
  /// "generic"). Both produce bit-identical results; dispatch is per
  /// process, decided once.
  static const char* lane_backend() noexcept;

 private:
  bool audit_armed() const noexcept { return replay_sim_ != nullptr; }
  /// Net values as of lane `lane` of the current word; lane -1 means the
  /// state the word started from.
  void state_at_lane(int lane, std::span<Logic> out) const;
  void replay_audit(std::span<const std::uint64_t> input_bits, int lanes);

  const Netlist* netlist_;
  const TechLibrary* tech_;
  const FaultOverlay* overlay_ = nullptr;
  std::int64_t step_base_ = 0;  ///< global step index of lane 0 of next word
  bool force_all_ = true;       ///< next word evaluates every gate
  int last_lanes_ = 0;          ///< lanes of the most recent word

  std::vector<double> aging_scale_;  // per gate (possibly empty)

  // Per-net state. A net not stamped with the current epoch did not change
  // and carried zero density in every lane of the current word; its value
  // in every lane is last_value_[net].
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> plane0_, plane1_;  // per net, lane-packed value
  std::vector<std::uint64_t> word_epoch_;       // per net
  std::vector<Logic> last_value_;               // per net: after last lane

  // Lane slots (see the header comment): the slot of each net, then the
  // slot arenas. Read only for nets stamped with the current epoch.
  std::vector<std::uint32_t> density_slot_;     // per net
  std::vector<std::uint32_t> arrival_slot_;     // per net, or kNoArrivalSlot
  std::vector<std::uint64_t> changed_, active_;  // per density slot
  std::vector<float> density_;   // per density slot x kBatchLanes
  std::vector<double> arrival_;  // per arrival slot x kBatchLanes

  std::array<StepResult, kBatchLanes> results_{};

  // Scalar-replay audit; all empty/null while the audit is disarmed.
  std::vector<double> audit_thresholds_ps_;
  double guard_ps_ = 0.0;
  std::unique_ptr<TimingSim> replay_sim_;
  std::vector<Logic> word_start_value_;  // per net: value before this word
  std::vector<Logic> replay_state_;      // scratch: one value per net
  std::vector<Logic> replay_inputs_;     // scratch: one value per input

  BatchStats stats_;
};

}  // namespace agingsim
