#include "src/aging/variation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

/// Standard-normal sampler over the deterministic PRNG. Box-Muller yields
/// two variates per (u1, u2) pair; both are used (the sine used to be
/// discarded, doubling the draw count for nothing), so consecutive calls
/// alternate cosine/sine of one shared pair.
class GaussianSampler {
 public:
  explicit GaussianSampler(std::uint64_t seed) noexcept : rng_(seed) {}

  double next() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u1 = rng_.next_double();
    while (u1 <= 0.0) u1 = rng_.next_double();
    const double u2 = rng_.next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    spare_ = r * std::sin(2.0 * M_PI * u2);
    have_spare_ = true;
    return r * std::cos(2.0 * M_PI * u2);
  }

 private:
  Rng rng_;
  double spare_ = 0.0;
  bool have_spare_ = false;
};

void check_sigma(const char* who, double sigma) {
  if (sigma < 0.0) {
    throw std::invalid_argument(std::string(who) + ": sigma must be >= 0");
  }
}

}  // namespace

std::vector<double> process_variation_scales(const Netlist& netlist,
                                             double sigma,
                                             std::uint64_t seed) {
  check_sigma("process_variation_scales", sigma);
  std::vector<double> scales(netlist.num_gates(), 1.0);
  if (sigma == 0.0) return scales;
  GaussianSampler gauss(seed);
  for (std::size_t g = 0; g < scales.size(); ++g) {
    scales[g] = std::exp(sigma * gauss.next());
  }
  return scales;
}

std::vector<int> topological_levels(const Netlist& netlist) {
  std::vector<int> level(netlist.num_gates(), 0);
  for (GateId g = 0; g < level.size(); ++g) {
    for (NetId in : netlist.gate_inputs(g)) {
      const std::int32_t drv = netlist.driver_of(in);
      if (drv >= 0) level[g] = std::max(level[g], level[drv] + 1);
    }
  }
  return level;
}

std::vector<double> correlated_variation_scales(const Netlist& netlist,
                                                const VariationModel& model,
                                                std::uint64_t seed,
                                                std::optional<double> die_z) {
  check_sigma("correlated_variation_scales (random)", model.sigma_random);
  check_sigma("correlated_variation_scales (grid)", model.sigma_grid);
  check_sigma("correlated_variation_scales (die)", model.sigma_die);
  if (model.grid_levels < 1) {
    throw std::invalid_argument(
        "correlated_variation_scales: grid_levels must be >= 1");
  }
  const std::size_t num_gates = netlist.num_gates();
  std::vector<double> scales(num_gates, 1.0);
  if (num_gates == 0) return scales;

  GaussianSampler gauss(seed);
  // Draw order is part of the contract: die first, then the grid nodes,
  // then the per-gate random terms — a caller-supplied die_z replaces the
  // value but still consumes the draw, so stratified and plain trials with
  // one seed share identical grid + random fields.
  const double z_die_drawn = gauss.next();
  const double z_die = die_z.value_or(z_die_drawn);

  // Grid nodes at block boundaries: gate g sits at continuous coordinate
  // level(g) / grid_levels and interpolates between the two neighbouring
  // nodes, so correlation decays smoothly with level distance.
  const std::vector<int> level = topological_levels(netlist);
  const int depth = *std::max_element(level.begin(), level.end()) + 1;
  const std::size_t num_nodes =
      static_cast<std::size_t>((depth + model.grid_levels - 1) /
                               model.grid_levels) +
      1;
  std::vector<double> grid_nodes(num_nodes);
  for (double& node : grid_nodes) node = gauss.next();

  for (GateId g = 0; g < num_gates; ++g) {
    const double x = static_cast<double>(level[g]) /
                     static_cast<double>(model.grid_levels);
    // num_nodes >= 2 whenever there are gates (depth >= 1), and the top
    // level lands strictly below the last node, so lo+1 is always valid
    // bar float rounding at the boundary — clamp for that case.
    std::size_t lo = static_cast<std::size_t>(x);
    if (lo > num_nodes - 2) lo = num_nodes - 2;
    const std::size_t hi = lo + 1;
    const double frac = x - static_cast<double>(lo);
    const double z_grid =
        grid_nodes[lo] + (grid_nodes[hi] - grid_nodes[lo]) * frac;
    const double z_rand = gauss.next();
    scales[g] = std::exp(model.sigma_die * z_die +
                         model.sigma_grid * z_grid +
                         model.sigma_random * z_rand);
  }
  return scales;
}

std::vector<double> stochastic_aging_scales(std::span<const double> base,
                                            double sigma,
                                            std::uint64_t seed) {
  check_sigma("stochastic_aging_scales", sigma);
  std::vector<double> out(base.begin(), base.end());
  if (sigma == 0.0) return out;
  GaussianSampler gauss(seed);
  for (double& s : out) {
    // Jitter the degradation (s - 1), not the whole scale: a fresh gate
    // stays exactly at 1 and the jitter magnitude tracks how aged the
    // gate actually is.
    s = 1.0 + (s - 1.0) * std::exp(sigma * gauss.next());
  }
  return out;
}

std::vector<double> combine_scales(
    std::initializer_list<std::span<const double>> overlays) {
  std::vector<double> out;
  for (const auto overlay : overlays) {
    accumulate_scales(out, overlay);
  }
  return out;
}

void accumulate_scales(std::vector<double>& acc,
                       std::span<const double> overlay) {
  if (overlay.empty()) return;
  if (acc.empty()) {
    acc.assign(overlay.begin(), overlay.end());
    return;
  }
  if (overlay.size() != acc.size()) {
    throw std::invalid_argument(
        "combine_scales: overlays must have equal length");
  }
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] *= overlay[i];
}

}  // namespace agingsim
