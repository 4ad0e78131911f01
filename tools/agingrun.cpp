// agingrun — crash-safe campaign runner (docs/ROBUSTNESS.md).
//
// Front-end of the src/runtime/ execution layer: runs a FaultCampaign, a
// period sweep, or a Monte-Carlo process-variation + stochastic-aging
// campaign (--campaign mc, docs/MODEL.md) under the RobustRunner with
// checkpoint/resume, watchdog
// deadlines, retry-with-backoff, poison-task quarantine and deterministic
// chaos injection. A run killed at any instant (SIGKILL, OOM, chaos crash)
// and restarted with --resume completes the remaining work units and
// emits JSON byte-identical to an uninterrupted run — the property the CI
// kill-and-resume job asserts with cmp(1).
//
// SIGINT/SIGTERM are handled cooperatively: the handler pokes a self-pipe,
// a watcher thread cancels the runner's stop token, in-flight units wind
// down, completed units stay checkpointed, trace/metrics artifacts are
// flushed, and the process exits 130 (SIGINT) or 143 (SIGTERM) — so an
// interrupted campaign resumes with --resume instead of starting over.
//
// Exit codes: 0 = campaign complete, every unit ok;
//             1 = campaign complete but some units quarantined;
//             2 = usage error;
//             3 = checkpoint directory unusable;
//             86 = chaos-simulated crash (resume loops restart on this);
//             130/143 = interrupted by SIGINT/SIGTERM, partial results
//                       checkpointed.

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "src/core/env.hpp"
#include "src/fault/campaign_spec.hpp"
#include "src/mc/mc_campaign.hpp"
#include "src/mc/mc_report.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/report/json.hpp"
#include "src/runtime/chaos.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/runtime/serial.hpp"
#include "tools/flags.hpp"

namespace {

using namespace agingsim;

// Self-pipe signal plumbing: the handler does the only async-signal-safe
// things possible (set a flag, write one byte); a watcher thread turns the
// byte into a cooperative CancelToken::cancel().
int g_signal_pipe[2] = {-1, -1};
volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) {
  g_signal = sig;
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Installs the handlers and runs the watcher; the destructor releases the
/// watcher so every return path of run_tool() joins it.
class SignalGuard {
 public:
  explicit SignalGuard(runtime::CancelToken& stop) {
    if (pipe(g_signal_pipe) != 0) return;
    armed_ = true;
    struct sigaction sa{};
    sa.sa_handler = on_signal;
    // One-shot: a second signal gets the default disposition, so a stuck
    // drain is never more than one more kill away.
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    watcher_ = std::thread([&stop] {
      char byte = 0;
      while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
      }
      if (byte == 's') stop.cancel();
    });
  }
  ~SignalGuard() {
    if (!armed_) return;
    const char byte = 'q';
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
    watcher_.join();
    ::close(g_signal_pipe[0]);
    ::close(g_signal_pipe[1]);
    g_signal_pipe[0] = g_signal_pipe[1] = -1;
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

 private:
  bool armed_ = false;
  std::thread watcher_;
};

struct Options {
  std::string campaign = "fault";  // fault | sweep | mc
  // Fault-campaign parameters (docs/FAULTS.md); the sweep builds from them
  // too, and mc reads width, trials, ops, seed and period_frac.
  FaultCampaignSpec spec;
  bool ops_set = false;  // mc defaults ops to 256 unless given
  std::string arch;      // as given; empty = cb (fault, sweep), all (mc)
  int sweep_points = 32;
  std::string checkpoint_dir;
  bool resume = false;
  long deadline_ms = 0;
  int max_retries = 3;
  long backoff_ms = 25;
  std::string chaos_spec;  // empty = AGINGSIM_CHAOS / none
  // Monte-Carlo campaign shape (--campaign mc).
  int block = 32;
  std::string years = "0,7";
  int strata = 16;
  double sigma_random = 0.05;
  double sigma_grid = 0.03;
  double sigma_die = 0.03;
  double sigma_aging = 0.10;
  int surface_points = 29;
  std::string json_path = "-";
  std::string trace_path;    // empty = AGINGSIM_TRACE / off
  std::string metrics_path;  // empty = AGINGSIM_METRICS / off
  bool quiet = false;
};

void print_usage(std::ostream& os) {
  os << "usage: agingrun [options]\n"
        "  --campaign NAME    fault (trial campaign), sweep (period sweep)\n"
        "                     or mc (Monte-Carlo variation + stochastic\n"
        "                     aging, docs/MODEL.md) [fault]\n"
        "campaign parameters (agingd takes the same as JSON keys; table in\n"
        "docs/FAULTS.md, \"Campaign parameters\"):\n"
        "  --arch NAME        am|cb|rb [cb]; mc also takes all [all]\n"
        "  --width N          multiplier width in [2,32] [16]\n"
        "  --trials N         trials (fault) / dies per arch (mc) [48]\n"
        "  --ops N            operations per trial [1500; mc: 256]\n"
        "  --sites N          fault sites per trial in [1,64] [2]\n"
        "  --kind NAME        stuck0|stuck1|transient|delay [delay]\n"
        "  --delay-factor F   delay multiplier for kind=delay, > 0 [8.0]\n"
        "  --seed S           campaign seed, decimal or 0x-hex [0xFA17]\n"
        "  --period-frac F    cycle period as a fraction of the fresh\n"
        "                     critical path, in (0,4] [0.58]\n"
        "other options:\n"
        "  --sweep-points N   points for --campaign sweep [32]\n"
        "  --block N          mc: trials per checkpoint unit [32]\n"
        "  --years LIST       mc: comma-separated evaluation years [0,7]\n"
        "  --strata N         mc: die-normal strata (variance reduction,\n"
        "                     1 = plain sampling) [16]\n"
        "  --sigma-random F   mc: independent per-gate lognormal sigma"
        " [0.05]\n"
        "  --sigma-grid F     mc: correlated level-grid lognormal sigma"
        " [0.03]\n"
        "  --sigma-die F      mc: die-to-die lognormal sigma [0.03]\n"
        "  --sigma-aging F    mc: stochastic-aging jitter sigma [0.10]\n"
        "  --surface-points N mc: failure-surface period samples [29]\n"
        "  --checkpoint-dir D persist completed units under D (enables\n"
        "                     crash-safety; no dir = in-memory only)\n"
        "  --resume           keep and reuse existing checkpoints (without\n"
        "                     this flag a fresh run clears the directory)\n"
        "  --deadline-ms N    per-attempt watchdog deadline, 0 = off [0]\n"
        "  --max-retries N    retry budget for transient failures [3]\n"
        "  --backoff-ms N     base backoff before the first retry [25]\n"
        "  --chaos SPEC       seed:rate[:actions], actions in [tpsc]\n"
        "                     (overrides AGINGSIM_CHAOS)\n"
        "  --json PATH        write campaign JSON to PATH ('-' = stdout)\n"
        "  --trace PATH       record spans, write a Chrome trace-event\n"
        "                     file to PATH (chrome://tracing, Perfetto)\n"
        "  --metrics PATH     record metrics, write a JSON snapshot to\n"
        "                     PATH (see docs/OBSERVABILITY.md)\n"
        "  --quiet            suppress the runtime summary on stderr\n"
        "  --help             this text\n";
}

std::optional<std::vector<MultiplierArch>> parse_arches(
    const std::string& name) {
  if (name == "all") {
    return std::vector{MultiplierArch::kArray, MultiplierArch::kColumnBypass,
                       MultiplierArch::kRowBypass};
  }
  if (const auto arch = multiplier_arch_from_name(name)) {
    return std::vector{*arch};
  }
  return std::nullopt;
}

/// "0,3.5,7" -> {0.0, 3.5, 7.0}; nullopt on malformed or empty input.
std::optional<std::vector<double>> parse_years(const std::string& spec) {
  std::vector<double> years;
  const char* p = spec.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || v < 0.0) return std::nullopt;
    years.push_back(v);
    p = end;
    if (*p == ',') {
      ++p;
    } else if (*p != '\0') {
      return std::nullopt;
    }
  }
  if (years.empty()) return std::nullopt;
  return years;
}

std::optional<Options> parse_args(int argc, char** argv, int& exit_code) {
  Options opt;
  cli::Flags flags;
  flags.switches = {{"--resume", [&] { opt.resume = true; }},
                    {"--quiet", [&] { opt.quiet = true; }}};
  flags.values = {
      {"--campaign", cli::choice("fault|sweep|mc", opt.campaign)},
      {"--arch", cli::choice("am|cb|rb|all", opt.arch)},
      {"--years",
       [&](const std::string& v) -> std::string {
         if (!parse_years(v)) {
           return "wants a comma-separated list of non-negative numbers, "
                  "e.g. 0,3.5,7";
         }
         opt.years = v;
         return {};
       }},
      {"--sweep-points", cli::integer(1, opt.sweep_points)},
      {"--block", cli::integer(1, opt.block)},
      {"--strata", cli::integer(1, opt.strata)},
      {"--surface-points", cli::integer(1, opt.surface_points)},
      {"--deadline-ms", cli::integer(0, opt.deadline_ms)},
      {"--max-retries", cli::integer(0, opt.max_retries)},
      {"--backoff-ms", cli::integer(0, opt.backoff_ms)},
      {"--sigma-random", cli::number(0.0, opt.sigma_random)},
      {"--sigma-grid", cli::number(0.0, opt.sigma_grid)},
      {"--sigma-die", cli::number(0.0, opt.sigma_die)},
      {"--sigma-aging", cli::number(0.0, opt.sigma_aging)},
      {"--checkpoint-dir", cli::text(opt.checkpoint_dir)},
      {"--chaos", cli::text(opt.chaos_spec)},
      {"--json", cli::text(opt.json_path)},
      {"--trace", cli::text(opt.trace_path)},
      {"--metrics", cli::text(opt.metrics_path)},
  };
  // Campaign-spec parameters: --delay-factor sets "delay_factor", and so
  // on. --arch stays above: mc widens it to "all".
  for (const std::string_view key : FaultCampaignSpec::kKeys) {
    std::string flag = "--" + std::string(key);
    std::replace(flag.begin(), flag.end(), '_', '-');
    flags.values.try_emplace(flag, [&opt, key](const std::string& v) {
      std::string error;
      if (opt.spec.set(key, v, &error)) opt.ops_set |= key == "ops";
      return error;
    });
  }
  if (const auto code =
          cli::parse_flags("agingrun", argc, argv, flags, print_usage)) {
    exit_code = *code;
    return std::nullopt;
  }
  if (opt.campaign != "mc" && !opt.arch.empty()) {
    std::string error;
    if (!opt.spec.set("arch", opt.arch, &error)) {
      std::cerr << "agingrun: --arch: " << error << " (all is mc-only)\n";
      exit_code = 2;
      return std::nullopt;
    }
  }
  return opt;
}

int write_json(const Options& opt, const std::string& json) {
  if (opt.json_path == "-") {
    std::cout << json << "\n";
    return 0;
  }
  // Same atomicity discipline as the checkpoint store: a run killed while
  // writing its report must not leave a torn JSON behind for cmp(1).
  const std::string tmp = opt.json_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      std::cerr << "agingrun: cannot write " << tmp << "\n";
      return 2;
    }
    out << json << "\n";
  }
  if (std::rename(tmp.c_str(), opt.json_path.c_str()) != 0) {
    std::cerr << "agingrun: cannot rename " << tmp << "\n";
    return 2;
  }
  return 0;
}

int run_tool(const Options& opt) {
  // Flip the recorders before any instrumented code runs; the files are
  // written after the campaign JSON below. AGINGSIM_TRACE/AGINGSIM_METRICS
  // (handled in src/obs/artifacts.cpp) remain usable alongside the flags.
  if (!opt.trace_path.empty()) obs::set_trace_enabled(true);
  if (!opt.metrics_path.empty()) obs::set_metrics_enabled(true);
  runtime::RunnerConfig runner_config = runtime::RunnerConfig::from_env();
  runtime::CancelToken stop;
  const SignalGuard signal_guard(stop);
  runner_config.stop = &stop;
  runner_config.max_retries = opt.max_retries;
  runner_config.deadline = std::chrono::milliseconds(opt.deadline_ms);
  runner_config.backoff_base = std::chrono::milliseconds(opt.backoff_ms);
  if (!opt.chaos_spec.empty()) {
    std::string error;
    const auto chaos = runtime::ChaosPolicy::parse(opt.chaos_spec, &error);
    if (!chaos) {
      std::cerr << "agingrun: " << error << "\n";
      return 2;
    }
    runner_config.chaos = *chaos;
  }

  const TechLibrary& lib = bench::tech();

  JsonWriter json;
  json.begin_object();
  json.key("tool").value("agingrun");
  json.key("schema_version").value(std::int64_t{1});
  json.key("campaign").value(opt.campaign);
  json.key("width").value(opt.spec.width);

  int exit_code = 0;
  runtime::RunReport report;
  std::optional<runtime::CheckpointStore> store;
  const auto attach_store = [&](std::uint64_t digest) -> bool {
    if (opt.checkpoint_dir.empty()) return true;
    try {
      store.emplace(opt.checkpoint_dir, digest);
      if (opt.resume) {
        const runtime::CheckpointScan scan = store->load();
        if (!opt.quiet) {
          std::fprintf(stderr,
                       "agingrun: resume: %zu units restored, %zu stale "
                       "files discarded\n",
                       scan.loaded, scan.discarded);
        }
      } else {
        store->clear();
      }
    } catch (const runtime::RunError& e) {
      std::cerr << "agingrun: " << e.what() << "\n";
      return false;
    }
    runner_config.checkpoints = &*store;
    return true;
  };

  if (opt.campaign == "mc") {
    mc::McCampaignConfig mcfg;
    mcfg.width = opt.spec.width;
    mcfg.arches = *parse_arches(opt.arch.empty() ? "all" : opt.arch);
    mcfg.trials = opt.spec.trials;
    mcfg.block = opt.block;
    mcfg.ops = opt.ops_set ? opt.spec.ops : std::size_t{256};
    mcfg.seed = opt.spec.seed;
    mcfg.years = *parse_years(opt.years);
    mcfg.variation.sigma_random = opt.sigma_random;
    mcfg.variation.sigma_grid = opt.sigma_grid;
    mcfg.variation.sigma_die = opt.sigma_die;
    mcfg.sigma_aging = opt.sigma_aging;
    mcfg.strata = opt.strata;
    mcfg.period_frac = opt.spec.period_frac;
    const mc::McCampaign campaign(lib, std::move(mcfg));
    if (!attach_store(campaign.config_digest())) return 3;
    runtime::RobustRunner runner(runner_config);
    std::optional<mc::McResult> result;
    try {
      result = campaign.run(
          mc::McRunOptions{.runner = &runner, .report = &report});
    } catch (const runtime::RunError&) {
      // A signal-interrupted campaign is not an error: completed seed
      // blocks are checkpointed, the JSON says so, exit code is 128+signal.
      if (g_signal == 0) throw;
    }
    if (result.has_value()) {
      mc::McReportOptions report_options;
      report_options.surface_points = opt.surface_points;
      mc::write_mc_json(json, campaign.config(), *result, report_options);
    } else {
      json.key("interrupted").value(true);
    }
  } else {
    const FaultCampaignSpec& spec = opt.spec;
    const FaultCampaignSetup setup(spec, lib);
    json.key("critical_path_ps").value(setup.crit_ps);
    json.key("period_ps").value(setup.system.period_ps);
    json.key("ops").value(static_cast<std::uint64_t>(spec.ops));
    if (opt.campaign == "fault") {
      const FaultCampaign& campaign = setup.campaign;
      if (!attach_store(campaign.config_digest(setup.patterns))) return 3;
      runtime::RobustRunner runner(runner_config);
      std::optional<FaultCampaignStats> stats;
      try {
        stats = campaign.run(setup.patterns, CampaignRunOptions{
                                                 .runner = &runner,
                                                 .report = &report});
      } catch (const runtime::RunError&) {
        // A signal-interrupted campaign is not an error: completed units
        // are checkpointed, the JSON says so, and the exit code is
        // 128+signal.
        if (g_signal == 0) throw;
      }
      json.key("kind").value(fault_kind_name(spec.kind));
      json.key("configured_trials").value(spec.trials);
      json.key("sites_per_trial").value(spec.sites);
      if (spec.kind == FaultKind::kDelayOutlier) {
        json.key("delay_factor").value(spec.delay_factor);
      }
      json.key("seed").value(spec.seed);
      if (stats.has_value()) {
        json.key("stats").begin_object();
        write_stats_json(json, *stats);
        json.end_object();
      } else {
        json.key("interrupted").value(true);
      }
    } else {
      // Period sweep: demonstrate the sweep_periods wiring under the same
      // runtime (unit = one sweep point).
      const auto trace = compute_op_trace(setup.mult, lib, setup.patterns);
      const std::vector<double> periods = bench::linspace(
          0.45 * setup.crit_ps, 1.05 * setup.crit_ps, opt.sweep_points);
      runtime::Digest digest;
      digest.mix(std::string_view("agingrun-sweep/v1"))
          .mix(spec.width)
          .mix(static_cast<std::uint64_t>(spec.ops))
          .mix(spec.period_frac)
          .mix(opt.sweep_points)
          .mix(std::string_view(spec.arch))
          .mix(spec.skip());
      if (!attach_store(digest.value())) return 3;
      runtime::RobustRunner runner(runner_config);
      const std::vector<RunStats> points =
          bench::sweep_periods(setup.mult, trace, periods, spec.skip(), true,
                               0.0, nullptr, &runner, &report);

      json.key("points").begin_array();
      for (std::size_t i = 0; i < points.size(); ++i) {
        json.begin_object();
        if (report.units[i].state == runtime::UnitState::kQuarantined) {
          json.key("quarantined").value(true);
          json.key("period_ps").value(periods[i]);
        } else if (report.units[i].state == runtime::UnitState::kSkipped) {
          json.key("skipped").value(true);
          json.key("period_ps").value(periods[i]);
        } else {
          write_stats_json(json, points[i]);
        }
        json.end_object();
      }
      json.end_array();
      if (report.interrupted()) json.key("interrupted").value(true);
    }
  }
  json.end_object();

  if (!report.all_ok()) exit_code = 1;
  if (!opt.quiet) {
    std::fprintf(stderr, "agingrun: %s\n", report.summary().c_str());
    for (std::size_t u = 0; u < report.units.size(); ++u) {
      if (report.units[u].state == runtime::UnitState::kQuarantined) {
        std::fprintf(stderr, "agingrun: unit %zu quarantined [%s]: %s\n", u,
                     std::string(runtime::error_category_name(
                                     report.units[u].category))
                         .c_str(),
                     report.units[u].error.c_str());
      }
    }
  }
  const int write_code = write_json(opt, json.str());
  // Best-effort: a failed observability write diagnoses on stderr but never
  // changes the campaign's exit code.
  if (!opt.trace_path.empty()) (void)obs::write_trace_json(opt.trace_path);
  if (!opt.metrics_path.empty()) {
    (void)obs::write_metrics_json(opt.metrics_path);
  }
  if (g_signal != 0) {
    if (!opt.quiet) {
      std::fprintf(stderr,
                   "agingrun: interrupted by signal %d; completed units "
                   "checkpointed, rerun with --resume\n",
                   static_cast<int>(g_signal));
    }
    return 128 + static_cast<int>(g_signal);
  }
  return write_code != 0 ? write_code : exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  int exit_code = 0;
  const auto opt = parse_args(argc, argv, exit_code);
  if (!opt) return exit_code;
  try {
    return run_tool(*opt);
  } catch (const std::exception& e) {
    std::cerr << "agingrun: fatal: " << e.what() << "\n";
    return 70;
  }
}
