// mc_campaign: a Monte-Carlo process-variation + stochastic-aging campaign
// over AM/CB/RB at 16 bits, years {0, 7}, many dies x short streams, run
// through a RobustRunner on the harness's pool. One job = one
// McCampaign::run; set-up = McCampaign construction (stress extraction for
// the three architectures, base overlays, operand stream).

#include <cmath>
#include <memory>

#include "perfbench/harness/harness.hpp"
#include "src/core/calibration.hpp"
#include "src/exec/thread_pool.hpp"
#include "src/mc/mc_campaign.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/robust_runner.hpp"

namespace perfbench {
namespace {

using namespace agingsim;

std::uint64_t result_digest(const mc::McResult& r) {
  Digest d;
  for (const mc::McArchResult& a : r.arches) {
    d.mix(static_cast<std::uint64_t>(a.arch));
    d.mix(a.fresh_critical_path_ps).mix(a.period_ps);
    d.mix(a.trials_quarantined);
    d.mix(static_cast<std::uint64_t>(a.records.size()));
    for (const mc::McTrialRecord& rec : a.records) {
      d.mix(rec.max_delay_ps).mix(rec.errors_per_10k);
    }
  }
  return d.value();
}

}  // namespace

Outcome run_mc(const Options& opt) {
  Outcome out;
  mc::McCampaignConfig cfg;
  cfg.width = 16;
  cfg.years = {0.0, 7.0};
  cfg.ops = opt.tiny ? 64 : 256;
  cfg.trials = opt.tiny ? 8 : 96;
  cfg.block = opt.tiny ? 4 : 8;
  cfg.seed = derive_seed(opt.seed, 1);
  cfg.workload_seed = derive_seed(opt.seed, 2);
  const TechLibrary tech = calibrated_tech_library(1880.0);

  std::unique_ptr<mc::McCampaign> campaign;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    campaign = std::make_unique<mc::McCampaign>(tech, cfg);
    out.setup_s.push_back(now_s() - t0);
  }

  exec::ThreadPool pool(opt.threads);
  std::uint64_t first_digest = 0;
  std::uint64_t jobs = 0;
  const auto timed_phase = [&](double seconds, std::vector<double>& times) {
    const double start = now_s();
    do {
      runtime::RunnerConfig rc;
      rc.pool = &pool;
      runtime::RobustRunner runner(rc);
      runtime::RunReport report;
      const double t0 = now_s();
      mc::McResult result;
      {
        obs::TraceSpan span("bench.job", jobs);
        result = campaign->run({.runner = &runner, .report = &report});
      }
      const double t = now_s() - t0;
      times.push_back(t);
      out.attempted += campaign->num_units();
      if (report.quarantined + report.skipped > 0) {
        out.fail("job " + std::to_string(jobs) + ": " + report.summary(),
                 report.quarantined + report.skipped);
      }
      for (const mc::McArchResult& a : result.arches) {
        if (a.trials_completed(cfg.years.size()) !=
            static_cast<std::uint64_t>(cfg.trials)) {
          out.fail("job " + std::to_string(jobs) + ": missing trials");
        }
        for (const mc::McTrialRecord& rec : a.records) {
          if (!(rec.max_delay_ps > 0.0) || !std::isfinite(rec.max_delay_ps) ||
              !(rec.errors_per_10k >= 0.0)) {
            out.fail("job " + std::to_string(jobs) + ": bad trial record");
            break;
          }
        }
      }
      const std::uint64_t digest = result_digest(result);
      if (jobs == 0) {
        first_digest = digest;
      } else if (digest != first_digest) {
        out.fail("job " + std::to_string(jobs) + " differs from job 0");
      }
      ++jobs;
    } while (now_s() - start < seconds);
  };

  if (!opt.trace) {
    timed_phase(opt.seconds, out.job_s);
  } else {
    timed_phase(opt.seconds / 2, out.job_s);
    const std::string before = obs::metrics_json();
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    timed_phase(std::min(opt.seconds / 2, 5.0), out.traced_job_s);
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);
    write_file(opt.out_dir + "/metrics_before.json", before);
    write_file(opt.out_dir + "/metrics_after.json", obs::metrics_json());
    obs::write_trace_json(opt.out_dir + "/spans_harness.json");
    out.trace_files = {{"harness", "spans_harness.json"},
                       {"metrics_before", "metrics_before.json"},
                       {"metrics_after", "metrics_after.json"}};
    // Batch kernel: one word sweep per 64 ops of each (trial, year) trace.
    double gate_words = 0.0;
    for (const MultiplierArch arch : cfg.arches) {
      gate_words += static_cast<double>(
                        build_multiplier(arch, cfg.width).netlist.num_gates()) *
                    static_cast<double>(cfg.trials) *
                    static_cast<double>(cfg.years.size()) *
                    std::ceil(static_cast<double>(cfg.ops) / 64.0);
    }
    out.trace_info = {
        {"traced_jobs", static_cast<double>(out.traced_job_s.size())},
        {"gate_steps_per_job", 0.0},
        {"gate_words_per_job", gate_words}};
  }
  out.peak_rss_mb = self_peak_rss_mb();
  out.sim_digest = first_digest;
  out.context = {{"units_per_job", static_cast<double>(campaign->num_units())},
                 {"dies_per_job", static_cast<double>(cfg.trials) *
                                      static_cast<double>(cfg.arches.size())},
                 {"jobs", static_cast<double>(jobs)}};
  return out;
}

}  // namespace perfbench
