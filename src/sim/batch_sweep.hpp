#pragma once

// Internal interface between BatchTimingSim (batch_sim.cpp) and the
// word-sweep core (batch_sweep.inl). The core is compiled twice: once with
// the library's baseline flags (run_sweep_generic) and once in a translation
// unit built with -mavx2 on x86-64 (run_sweep_avx2), so the per-lane
// density/arrival loops vectorize 8/4-wide. Dispatch between them is a
// one-time runtime CPU check in batch_sim.cpp; both backends execute the
// same source with the same IEEE semantics (-ffp-contract=off, no
// reassociation), so results are bit-identical either way.

#include <cstdint>
#include <span>
#include <utility>

#include "src/fault/fault.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sim/batch_sim.hpp"
#include "src/sim/word_logic.hpp"

namespace agingsim::detail {

/// Borrowed views of one BatchTimingSim's per-word state. All per-net
/// arrays are indexed by NetId; density/arrival are kBatchLanes-strided.
struct SweepContext {
  const Netlist* netlist = nullptr;
  const FaultOverlay* overlay = nullptr;  // may be null
  const double* base_delay_ps = nullptr;  // per gate
  const double* cell_cap_ff = nullptr;    // per gate
  std::uint64_t epoch = 0;
  std::uint64_t* plane0 = nullptr;   // per net: lane-packed value bit 0
  std::uint64_t* plane1 = nullptr;   // per net: lane-packed value bit 1
  std::uint64_t* changed = nullptr;  // per net: lanes whose value changed
  std::uint64_t* active = nullptr;   // per net: changed or nonzero density
  std::uint64_t* word_epoch = nullptr;  // per net
  Logic* last_value = nullptr;          // per net: value after the last lane
  float* density = nullptr;             // per net x kBatchLanes
  double* arrival = nullptr;            // per net x kBatchLanes
  StepResult* results = nullptr;        // kBatchLanes entries
  const std::uint64_t* input_bits = nullptr;  // one word per primary input
  int lanes = 0;
  std::uint64_t lane_mask = 0;
  bool force_all = false;
  /// Transient strikes falling inside this word, as (gate, lane mask)
  /// pairs sorted by gate id (masks pre-merged per gate).
  std::span<const std::pair<GateId, std::uint64_t>> transient_masks;
  /// Gates whose transient fired on the last lane of the previous word:
  /// they must be evaluated so lane 0 un-flips them (the batch analogue of
  /// the scalar transient-cleanup dense step). Sorted by gate id.
  std::span<const GateId> forced_gates;
  std::uint64_t gates_processed = 0;  // out: gates the sweep evaluated
};

void run_sweep_generic(SweepContext& ctx);

/// Real AVX2 code when the build and architecture allow (batch_sim_avx2.cpp
/// compiled with -mavx2); otherwise a forwarder to run_sweep_generic.
void run_sweep_avx2(SweepContext& ctx);
bool avx2_sweep_available() noexcept;

}  // namespace agingsim::detail
