#include "src/mc/mc_campaign.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/aging/bti.hpp"
#include "src/aging/scenario.hpp"
#include "src/core/quantile.hpp"
#include "src/exec/thread_pool.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/serial.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::mc {
namespace {

struct McMetrics {
  const obs::Counter& runs = obs::counter("mc.runs");
  const obs::Counter& trials = obs::counter("mc.trials_completed");
  const obs::Counter& blocks = obs::counter("mc.blocks_completed");
};

const McMetrics& mc_metrics() {
  static const McMetrics m;
  return m;
}

/// Per-trial seed, a pure function of (campaign seed, arch, trial): block
/// size, thread count and restore order can never shift a trial's streams.
std::uint64_t trial_seed(std::uint64_t campaign_seed, std::size_t arch_index,
                         std::uint64_t trial) {
  runtime::Digest d;
  d.mix(std::string_view("mc-trial/v1"))
      .mix(campaign_seed)
      .mix(static_cast<std::uint64_t>(arch_index))
      .mix(trial);
  return d.value();
}

}  // namespace

/// Shared read-only per-architecture state: the netlist, its fresh critical
/// path, the evaluation period, and the deterministic base BTI overlay per
/// evaluation year (the trajectory every die's stochastic aging jitters
/// around).
struct McCampaign::ArchContext {
  MultiplierNetlist mult;
  double fresh_crit_ps = 0.0;
  double period_ps = 0.0;
  std::vector<std::vector<double>> year_scales;  // [year][gate]

  ArchContext(MultiplierArch arch, int width, const TechLibrary& tech,
              const McCampaignConfig& cfg)
      : mult(build_multiplier(arch, width)) {
    fresh_crit_ps = critical_path_ps(mult, tech);
    period_ps = cfg.period_frac * fresh_crit_ps;
    const BtiModel model = BtiModel::calibrated(tech);
    // Stress extraction is seeded from the campaign seed (not per trial):
    // the workload-dependent stress profile is a property of the design,
    // the per-die randomness rides on top of it.
    const AgingScenario scenario(mult.netlist, tech, model,
                                 cfg.seed ^ 0x57e55ULL, 1000);
    year_scales.reserve(cfg.years.size());
    for (const double year : cfg.years) {
      year_scales.push_back(scenario.delay_scales_at(year));
    }
  }
};

McCampaign::~McCampaign() = default;

McCampaign::McCampaign(const TechLibrary& tech, McCampaignConfig config)
    : tech_(&tech), config_(std::move(config)) {
  if (config_.trials < 1) {
    throw std::invalid_argument("McCampaign: trials must be >= 1");
  }
  if (config_.block < 1) {
    throw std::invalid_argument("McCampaign: block must be >= 1");
  }
  if (config_.ops < 1) {
    throw std::invalid_argument("McCampaign: ops must be >= 1");
  }
  if (config_.strata < 1) {
    throw std::invalid_argument("McCampaign: strata must be >= 1");
  }
  if (config_.arches.empty()) {
    throw std::invalid_argument("McCampaign: at least one architecture");
  }
  if (config_.years.empty()) {
    throw std::invalid_argument("McCampaign: at least one evaluation year");
  }
  if (!(config_.period_frac > 0.0)) {
    throw std::invalid_argument("McCampaign: period_frac must be > 0");
  }
  Rng rng(config_.workload_seed);
  patterns_ = uniform_patterns(rng, config_.width, config_.ops);
  arch_contexts_.reserve(config_.arches.size());
  for (const MultiplierArch arch : config_.arches) {
    arch_contexts_.emplace_back(arch, config_.width, *tech_, config_);
  }
}

std::size_t McCampaign::blocks_per_arch() const noexcept {
  const std::size_t trials = static_cast<std::size_t>(config_.trials);
  const std::size_t block = static_cast<std::size_t>(config_.block);
  return (trials + block - 1) / block;
}

double McCampaign::fresh_critical_path_ps(std::size_t i) const {
  return arch_contexts_.at(i).fresh_crit_ps;
}

std::vector<std::vector<double>> McCampaign::trial_scales(
    std::size_t arch_index, std::uint64_t trial) const {
  const ArchContext& arch = arch_contexts_.at(arch_index);
  Rng rng(trial_seed(config_.seed, arch_index, trial));
  // Stratified die-level normal: trial t samples stratum t mod strata of
  // the standard normal through the inverse CDF, so `strata` trials cover
  // the whole distribution — including the slow tail that dominates the
  // p99.99 band — instead of clustering around the median.
  const std::uint64_t stratum =
      trial % static_cast<std::uint64_t>(config_.strata);
  double u = rng.next_double();
  while (u <= 0.0) u = rng.next_double();
  const double stratified_u =
      (static_cast<double>(stratum) + u) / static_cast<double>(config_.strata);
  const double die_z = quantile::inverse_normal_cdf(stratified_u);

  const std::uint64_t variation_seed = rng.next();
  const std::uint64_t aging_seed = rng.next();
  const std::vector<double> variation = correlated_variation_scales(
      arch.mult.netlist, config_.variation, variation_seed, die_z);

  std::vector<std::vector<double>> out;
  out.reserve(config_.years.size());
  for (std::size_t y = 0; y < config_.years.size(); ++y) {
    // One aging_seed across years: the jitter is the die's device-level
    // trait, so a die that ages fast at year 1 ages fast at year 7 too.
    std::vector<double> scales = stochastic_aging_scales(
        arch.year_scales[y], config_.sigma_aging, aging_seed);
    accumulate_scales(scales, variation);
    out.push_back(std::move(scales));
  }
  return out;
}

std::vector<McTrialRecord> McCampaign::compute_block(std::size_t arch_index,
                                                     std::size_t block) const {
  obs::TraceSpan span("mc.block", block);
  const ArchContext& arch = arch_contexts_.at(arch_index);
  const std::uint64_t first =
      static_cast<std::uint64_t>(block) *
      static_cast<std::uint64_t>(config_.block);
  const std::uint64_t last =
      std::min(first + static_cast<std::uint64_t>(config_.block),
               static_cast<std::uint64_t>(config_.trials));
  // Every (trial, year) overlay of the block is an aging corner of one
  // shared op trace, so the block's values are swept once per
  // kMaxSweepCorners corners. Trials are gathered in groups that fill one
  // sweep, which bounds the overlays and traces held at once.
  const std::size_t years = config_.years.size();
  const std::uint64_t group = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(kMaxSweepCorners) / years);
  std::vector<McTrialRecord> records;
  records.reserve(static_cast<std::size_t>(last - first) * years);
  for (std::uint64_t t0 = first; t0 < last; t0 += group) {
    std::vector<std::vector<double>> scales;
    for (std::uint64_t t = t0; t < std::min(t0 + group, last); ++t) {
      for (std::vector<double>& s : trial_scales(arch_index, t)) {
        scales.push_back(std::move(s));
      }
    }
    const std::vector<std::span<const double>> corners(scales.begin(),
                                                       scales.end());
    for (const std::vector<OpTrace>& trace :
         compute_op_trace(arch.mult, *tech_, patterns_, corners)) {
      McTrialRecord rec;
      std::uint64_t violations = 0;
      for (const OpTrace& op : trace) {
        rec.max_delay_ps = std::max(rec.max_delay_ps, op.delay_ps);
        if (op.delay_ps > arch.period_ps) ++violations;
      }
      rec.errors_per_10k = static_cast<double>(violations) * 10000.0 /
                           static_cast<double>(trace.size());
      records.push_back(rec);
    }
  }
  mc_metrics().trials.add(last - first);
  mc_metrics().blocks.add();
  return records;
}

std::uint64_t McCampaign::config_digest() const {
  runtime::Digest d;
  d.mix(std::string_view("McCampaign/v1"));
  d.mix(config_.width)
      .mix(config_.trials)
      .mix(config_.block)
      .mix(static_cast<std::uint64_t>(config_.ops))
      .mix(config_.seed)
      .mix(config_.workload_seed)
      .mix(config_.sigma_aging)
      .mix(config_.strata)
      .mix(config_.period_frac);
  d.mix(config_.variation.sigma_random)
      .mix(config_.variation.sigma_grid)
      .mix(config_.variation.grid_levels)
      .mix(config_.variation.sigma_die);
  d.mix(static_cast<std::uint64_t>(config_.arches.size()));
  for (const MultiplierArch arch : config_.arches) {
    d.mix(static_cast<int>(arch));
  }
  d.mix(static_cast<std::uint64_t>(config_.years.size()));
  for (const double year : config_.years) d.mix(year);
  // Deliberately NOT mixed: thread/runner settings (results do not depend
  // on them, so a campaign resumes byte-identically under any).
  return d.value();
}

McResult McCampaign::run(const McRunOptions& options) const {
  obs::TraceSpan run_span("mc.run", num_units());
  mc_metrics().runs.add();
  const std::size_t blocks = blocks_per_arch();
  const std::size_t units = num_units();

  McResult result;
  result.arches.resize(config_.arches.size());
  for (std::size_t a = 0; a < config_.arches.size(); ++a) {
    McArchResult& arch_result = result.arches[a];
    arch_result.arch = config_.arches[a];
    arch_result.fresh_critical_path_ps = arch_contexts_[a].fresh_crit_ps;
    arch_result.period_ps = arch_contexts_[a].period_ps;
  }

  const auto unit_records =
      [&](std::uint64_t unit) -> std::vector<McTrialRecord> {
    return compute_block(static_cast<std::size_t>(unit) / blocks,
                         static_cast<std::size_t>(unit) % blocks);
  };

  if (options.runner == nullptr) {
    const auto per_unit = exec::parallel_for_indexed(units, unit_records);
    for (std::size_t u = 0; u < units; ++u) {
      McArchResult& arch_result = result.arches[u / blocks];
      arch_result.records.insert(arch_result.records.end(),
                                 per_unit[u].begin(), per_unit[u].end());
    }
    return result;
  }

  runtime::RunReport local_report;
  runtime::RunReport& report =
      options.report != nullptr ? *options.report : local_report;
  const auto payloads = options.runner->run(
      units,
      [&](std::uint64_t unit, const runtime::CancelToken&) {
        return encode_mc_block(unit_records(unit));
      },
      &report);
  if (report.interrupted()) {
    throw runtime::RunError(
        runtime::ErrorCategory::kTransient,
        "McCampaign: interrupted before completion (" +
            std::to_string(report.skipped) +
            " units skipped); resume to continue");
  }
  // Aggregate in unit order — the only order that exists in the result —
  // so restored, retried and freshly computed blocks land identically.
  for (std::size_t u = 0; u < units; ++u) {
    McArchResult& arch_result = result.arches[u / blocks];
    if (report.units[u].state == runtime::UnitState::kQuarantined) {
      const std::size_t first = (u % blocks) * static_cast<std::size_t>(
                                                  config_.block);
      const std::size_t last =
          std::min(first + static_cast<std::size_t>(config_.block),
                   static_cast<std::size_t>(config_.trials));
      arch_result.trials_quarantined += last - first;
      continue;
    }
    const auto records = decode_mc_block(payloads[u]);
    arch_result.records.insert(arch_result.records.end(), records.begin(),
                               records.end());
  }
  return result;
}

std::string encode_mc_block(std::span<const McTrialRecord> records) {
  runtime::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const McTrialRecord& r : records) {
    w.f64(r.max_delay_ps).f64(r.errors_per_10k);
  }
  return w.take();
}

std::vector<McTrialRecord> decode_mc_block(const std::string& payload) {
  runtime::ByteReader r(payload);
  const std::uint32_t n = r.u32();
  std::vector<McTrialRecord> records(n);
  for (McTrialRecord& rec : records) {
    rec.max_delay_ps = r.f64();
    rec.errors_per_10k = r.f64();
  }
  r.expect_end();
  return records;
}

}  // namespace agingsim::mc
