#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace agingsim {

/// Process-variation model (cf. the paper's related work [19]: process-
/// variation-tolerant arithmetic with input-based elastic clocking).
/// Each gate's delay gets an independent multiplicative lognormal factor
/// exp(N(0, sigma)) — the standard within-die random-variation model.
/// The returned overlay composes multiplicatively with the aging overlays
/// (multiply element-wise, see combined_scales in scenario.hpp).
///
/// The generator consumes both Box-Muller variates (cosine and sine), so a
/// fixed seed yields a different stream than releases that discarded the
/// sine — see docs/MODEL.md ("Variation streams") for the pinning note.
std::vector<double> process_variation_scales(const Netlist& netlist,
                                             double sigma,
                                             std::uint64_t seed);

/// Correlated intra-die variation (docs/MODEL.md): three lognormal
/// components composed per gate,
///
///   scale(g) = exp(sigma_die * z_die
///              + sigma_grid * z_grid(level(g))
///              + sigma_random * z_g)
///
///  - z_die: one die-to-die mean shift shared by every gate;
///  - z_grid: a level-grid systematic field — one normal per block of
///    `grid_levels` topological levels, linearly interpolated between
///    block nodes, so neighbouring logic levels (the proxy for physical
///    adjacency in a placed array multiplier) vary together;
///  - z_g: the independent per-gate term of process_variation_scales.
///
/// Every component has median 1 (log-mean 0), so the nominal delay is the
/// median die.
struct VariationModel {
  double sigma_random = 0.05;  ///< independent per-gate lognormal sigma
  double sigma_grid = 0.03;    ///< correlated level-grid sigma
  int grid_levels = 4;         ///< topological levels per grid block (>= 1)
  double sigma_die = 0.03;     ///< die-to-die mean-shift sigma
};

/// Topological level of every gate, the grid coordinate of
/// correlated_variation_scales: 0 when every input is a primary input (or
/// the gate has none), otherwise 1 + the maximum level of its driving gates.
/// One forward pass over gate ids, which the netlist keeps topological.
std::vector<int> topological_levels(const Netlist& netlist);

/// Samples one die's correlated overlay. `die_z` overrides the die-level
/// normal draw (the Monte-Carlo engine's stratified-sampling hook); the
/// draw is consumed from the stream either way, so stratified and plain
/// trials with the same seed share identical grid + random components.
std::vector<double> correlated_variation_scales(
    const Netlist& netlist, const VariationModel& model, std::uint64_t seed,
    std::optional<double> die_z = std::nullopt);

/// Stochastic-aging jitter: scales the *degradation* part of a BTI/EM
/// overlay by an independent per-gate lognormal factor,
///
///   out[g] = 1 + (base[g] - 1) * exp(sigma * z_g),
///
/// modelling device-to-device spread around the deterministic reaction-
/// diffusion trajectory (median-preserving: the median die ages exactly
/// like the nominal model). A fresh overlay (base == 1) is unchanged; the
/// per-gate draws depend only on `seed`, so one seed gives a device its
/// aging "trait" consistently across evaluation years.
std::vector<double> stochastic_aging_scales(std::span<const double> base,
                                            double sigma, std::uint64_t seed);

/// Element-wise product of delay overlays (e.g. BTI x EM x variation).
/// All inputs must be the same length (one entry per gate); an empty span
/// means "identity" and is skipped. Spans, not vectors: the overlays are
/// only read, so call sites no longer copy every overlay per call.
std::vector<double> combine_scales(
    std::initializer_list<std::span<const double>> overlays);

/// In-place variant for per-trial hot loops: acc[i] *= overlay[i]. An
/// empty overlay is identity; if `acc` is empty it becomes a copy of
/// `overlay`. Throws std::invalid_argument on a length mismatch.
void accumulate_scales(std::vector<double>& acc,
                       std::span<const double> overlay);

}  // namespace agingsim
