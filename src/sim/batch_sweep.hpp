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
#include "src/netlist/techlib.hpp"
#include "src/sim/batch_sim.hpp"
#include "src/sim/word_logic.hpp"

namespace agingsim::detail {

/// Marks a net without an arrival slot: a primary input (arrival 0.0) or
/// the output of a gate that reads only primary inputs (arrival 0.0 + its
/// gate delay in every lane, see BatchTimingSim).
inline constexpr std::uint32_t kNoArrivalSlot = ~std::uint32_t{0};

/// Borrowed views of one BatchTimingSim's per-word state. Values live per
/// net; changed/active masks and density lanes live in density slots, and
/// arrival lanes in arrival slots, both shared by nets whose live ranges
/// do not overlap (BatchTimingSim's lane-slot map). Lane arrays are
/// kBatchLanes-strided. Everything but the arrivals is shared by all
/// aging corners; corner c of arrival slot s sits at (s * corners + c).
struct SweepContext {
  const Netlist* netlist = nullptr;
  const TechLibrary* tech = nullptr;
  /// Per corner: per-gate aging table, or null for a fresh circuit.
  const double* const* aging = nullptr;
  int corners = 1;
  const FaultOverlay* overlay = nullptr;  // may be null
  std::uint64_t epoch = 0;
  std::uint64_t* plane0 = nullptr;      // per net: lane-packed value bit 0
  std::uint64_t* plane1 = nullptr;      // per net: lane-packed value bit 1
  std::uint64_t* word_epoch = nullptr;  // per net
  Logic* last_value = nullptr;          // per net: value after the last lane
  const std::uint32_t* density_slot = nullptr;  // per net
  const std::uint32_t* arrival_slot = nullptr;  // per net, or kNoArrivalSlot
  std::uint64_t* changed = nullptr;  // per density slot: lanes that changed
  std::uint64_t* active = nullptr;   // per density slot: changed or density
  float* density = nullptr;          // per density slot x kBatchLanes
  double* arrival = nullptr;  // per arrival slot x corner x kBatchLanes
  StepResult* results = nullptr;  // per corner x kBatchLanes entries
  const std::uint64_t* input_bits = nullptr;  // one word per primary input
  int lanes = 0;
  std::uint64_t lane_mask = 0;
  bool force_all = false;
  /// Transient strikes falling inside this word, as (gate, lane mask)
  /// pairs sorted by gate id (masks pre-merged per gate).
  std::span<const std::pair<GateId, std::uint64_t>> transient_masks;
  /// Gates whose transient fired on the last lane of the previous word:
  /// they must be evaluated so lane 0 un-flips them (the batch analogue of
  /// the scalar step after a strike). Sorted by gate id.
  std::span<const GateId> forced_gates;
  std::uint64_t gates_processed = 0;  // out: gates the sweep evaluated
};

/// Gate `g`'s delay at corner `c`: tech x aging x fault factor, multiplied
/// in the scalar kernel's order (TimingSim::rebuild_delays), so both
/// kernels see the same double.
inline double gate_delay_ps(const SweepContext& ctx, int c, GateId g) {
  double d = ctx.tech->delay(ctx.netlist->gate(g).kind);
  if (ctx.aging[c] != nullptr) d *= ctx.aging[c][g];
  if (ctx.overlay != nullptr) d *= ctx.overlay->delay_factor(g);
  return d;
}

/// Arrival lanes of corner `c` of arrival slot `slot`.
inline double* arrival_lanes(const SweepContext& ctx, std::uint32_t slot,
                             int c) {
  return ctx.arrival +
         (std::size_t(slot) * std::size_t(ctx.corners) + std::size_t(c)) *
             kBatchLanes;
}

void run_sweep_generic(SweepContext& ctx);

/// Real AVX2 code when the build and architecture allow (batch_sim_avx2.cpp
/// compiled with -mavx2); otherwise a forwarder to run_sweep_generic.
void run_sweep_avx2(SweepContext& ctx);
bool avx2_sweep_available() noexcept;

}  // namespace agingsim::detail
