// paper_uniform / paper_fir: the chain behind every figure of the paper,
// for AM/CB/RB x 16/32 bits x years 0-7 (48 cells), regenerated end to end
// once per job:
//
//   per (arch, width): AgingScenario (BTI stress extraction)
//   per cell:          delay_scales_at / mean_dvth_at (aging overlay),
//                      critical_path_ps (STA), compute_op_trace (gate-level
//                      op trace), FixedLatencySystem::run at the aged
//                      critical path, VariableLatencySystem::run over a
//                      period x skip sweep (bypassing designs)
//
// Stress extraction and cells fan out over one exec::ThreadPool, as the
// figure benches do. Everything runs with the library's defaults, so the op
// trace uses whatever kernel the default resolves to.

#include <array>
#include <cstdio>
#include <memory>
#include <optional>

#include "perfbench/harness/harness.hpp"
#include "src/aging/scenario.hpp"
#include "src/core/calibration.hpp"
#include "src/exec/thread_pool.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/workload/patterns.hpp"

namespace perfbench {
namespace {

using namespace agingsim;

constexpr std::array<MultiplierArch, 3> kArches = {
    MultiplierArch::kArray, MultiplierArch::kColumnBypass,
    MultiplierArch::kRowBypass};
constexpr std::array<double, 3> kVlPeriodFracs = {0.55, 0.70, 0.85};

struct Sizes {
  std::array<int, 2> widths;  ///< heavier width first: balances the pool
  int years;                  ///< cells per group: years 0 .. years-1
  std::size_t ops;            ///< operand pairs per op trace
  std::size_t stress_vectors;
  std::size_t oracle_min_ops, oracle_max_ops;
};

Sizes sizes(bool tiny) {
  if (tiny) return {{16, 8}, 2, 64, 128, 8, 16};
  return {{32, 16}, 8, 1000, 1000, 32, 64};
}

/// Tech calibration, netlist builds and operand generation: everything the
/// jobs share and only read.
struct Setup {
  TechLibrary tech;
  BtiModel model;
  std::vector<MultiplierNetlist> mults;                // one per group
  std::vector<std::vector<OperandPattern>> operands;   // one per width
};

/// Group g = width index * 3 + arch index.
std::unique_ptr<Setup> make_setup(const Sizes& z, std::uint64_t seed,
                                  bool fir) {
  obs::TraceSpan span("bench.setup");
  TechLibrary tech = calibrated_tech_library(1880.0);
  BtiModel model = BtiModel::calibrated(tech);
  auto s = std::make_unique<Setup>(Setup{std::move(tech), model, {}, {}});
  for (std::size_t w = 0; w < z.widths.size(); ++w) {
    for (std::size_t a = 0; a < kArches.size(); ++a) {
      obs::TraceSpan build("multiplier.build", w * kArches.size() + a);
      s->mults.push_back(build_multiplier(kArches[a], z.widths[w]));
    }
    obs::TraceSpan gen("workload.operands", w);
    Rng rng(derive_seed(seed, 100 + w));
    s->operands.push_back(fir ? fir_tap_patterns(rng, z.widths[w], z.ops)
                              : uniform_patterns(rng, z.widths[w], z.ops));
  }
  return s;
}

struct Cell {
  double crit_ps = 0.0;
  double mean_dvth_v = 0.0;
  std::vector<double> scales;
  std::vector<OpTrace> trace;
  RunStats fixed;
  std::vector<RunStats> variable;
  std::uint64_t digest = 0;
};

std::uint64_t cell_digest(const Cell& c) {
  Digest d;
  d.mix(c.crit_ps).mix(c.mean_dvth_v);
  d.mix(static_cast<std::uint64_t>(c.scales.size()));
  for (const double x : c.scales) d.mix(x);
  mix_trace(d, c.trace);
  mix_run_stats(d, c.fixed);
  for (const RunStats& s : c.variable) mix_run_stats(d, s);
  return d.value();
}

class PaperJob {
 public:
  PaperJob(const Setup& setup, const Sizes& z, std::uint64_t seed)
      : setup_(setup), z_(z), seed_(seed) {}

  std::size_t groups() const { return setup_.mults.size(); }
  std::size_t cells() const { return groups() * static_cast<std::size_t>(z_.years); }

  /// One regeneration of every cell. Cells keep their traces and overlays
  /// only when `keep` (the checked job); otherwise just their digests.
  std::vector<Cell> run(exec::ThreadPool& pool, std::uint64_t job, bool keep) {
    obs::TraceSpan span("bench.job", job);
    std::vector<std::optional<AgingScenario>> scenarios(groups());
    pool.for_each_index(groups(), [&](std::size_t g) {
      obs::TraceSpan stress("aging.stress", g);
      scenarios[g].emplace(setup_.mults[g].netlist, setup_.tech,
                           setup_.model, derive_seed(seed_, 200 + g),
                           z_.stress_vectors);
    });
    return exec::parallel_for_indexed(pool, cells(), [&](std::size_t c) {
      return run_cell(*scenarios[c / static_cast<std::size_t>(z_.years)], c,
                      keep);
    });
  }

 private:
  Cell run_cell(const AgingScenario& scenario, std::size_t c, bool keep) {
    obs::TraceSpan span("bench.cell", c);
    const std::size_t g = c / static_cast<std::size_t>(z_.years);
    const double year = static_cast<double>(c % static_cast<std::size_t>(z_.years));
    const MultiplierNetlist& mult = setup_.mults[g];
    const auto& operands = setup_.operands[g / kArches.size()];
    Cell cell;
    {
      obs::TraceSpan s("aging.overlay", c);
      cell.scales = scenario.delay_scales_at(year);
      cell.mean_dvth_v = scenario.mean_dvth_at(year);
    }
    {
      obs::TraceSpan s("sim.sta", c);
      cell.crit_ps = critical_path_ps(mult, setup_.tech, cell.scales);
    }
    {
      obs::TraceSpan s("sim.trace", c);
      cell.trace = compute_op_trace(mult, setup_.tech, operands, cell.scales);
    }
    {
      obs::TraceSpan s("core.replay", c);
      FixedLatencySystem fixed(mult, setup_.tech);
      cell.fixed = fixed.run(cell.trace, cell.crit_ps, cell.mean_dvth_v);
    }
    if (mult.arch != MultiplierArch::kArray) {
      for (const double frac : kVlPeriodFracs) {
        for (int skip = mult.width / 2 - 1; skip <= mult.width / 2 + 1;
             ++skip) {
          obs::TraceSpan s("core.replay", c);
          VlSystemConfig cfg;
          cfg.period_ps = frac * cell.crit_ps;
          cfg.ahl.width = mult.width;
          cfg.ahl.skip = skip;
          cfg.ahl.adaptive = true;
          VariableLatencySystem vl(mult, setup_.tech, cfg);
          cell.variable.push_back(vl.run(cell.trace, cell.mean_dvth_v));
        }
      }
    }
    cell.digest = cell_digest(cell);
    if (!keep) {
      cell.scales = {};
      cell.trace = {};
    }
    return cell;
  }

  const Setup& setup_;
  const Sizes& z_;
  std::uint64_t seed_;
};

/// Checks of the first job, done after the timed phase: golden products,
/// bit-exact agreement of a seeded window of ops with the dense TimingSim
/// oracle, and a fault-free variable-latency contract (no undetected or
/// silently corrupted op). Each failing cell counts as one failure.
void check_cells(const Setup& setup, const Sizes& z, std::uint64_t seed,
                 exec::ThreadPool& pool, const std::vector<Cell>& cells,
                 Outcome& out) {
  std::vector<std::string> errors(cells.size());
  pool.for_each_index(cells.size(), [&](std::size_t c) {
    const Cell& cell = cells[c];
    const std::size_t g = c / static_cast<std::size_t>(z.years);
    const MultiplierNetlist& mult = setup.mults[g];
    const auto& operands = setup.operands[g / kArches.size()];
    std::string& err = errors[c];
    const auto fail = [&](const std::string& what) {
      if (err.empty()) err = "cell " + std::to_string(c) + ": " + what;
    };
    if (cell.trace.size() != operands.size()) fail("trace length");
    for (std::size_t i = 0; i < cell.trace.size(); ++i) {
      const OpTrace& op = cell.trace[i];
      if (op.a != operands[i].a || op.b != operands[i].b ||
          op.product != reference_multiply(op.a, op.b, mult.width) ||
          op.golden != op.product || !op.correct) {
        fail("product of op " + std::to_string(i) + " differs from a*b");
        break;
      }
    }
    // Dense oracle over a seeded prefix window (ops depend on the state the
    // previous op left, so the window starts at op 0).
    Rng rng(derive_seed(seed, 300 + c));
    const std::size_t window = std::min(
        cell.trace.size(),
        z.oracle_min_ops + static_cast<std::size_t>(rng.next_below(
                               z.oracle_max_ops - z.oracle_min_ops + 1)));
    MultiplierSim oracle(mult, setup.tech, cell.scales);
    oracle.set_mode(TimingSim::Mode::kDense);
    for (std::size_t i = 0; i < window; ++i) {
      const StepResult step = oracle.apply(operands[i].a, operands[i].b);
      const OpTrace& op = cell.trace[i];
      if (oracle.product() != op.product ||
          std::bit_cast<std::uint64_t>(step.output_settle_ps) !=
              std::bit_cast<std::uint64_t>(op.delay_ps) ||
          std::bit_cast<std::uint64_t>(step.switched_cap_ff) !=
              std::bit_cast<std::uint64_t>(op.switched_cap_ff)) {
        fail("op " + std::to_string(i) + " differs from the dense oracle");
        break;
      }
    }
    if (cell.fixed.undetected != 0 || cell.fixed.sdc_ops != 0 ||
        cell.fixed.errors != 0) {
      fail("fixed-latency replay at the aged critical path has errors");
    }
    for (const RunStats& s : cell.variable) {
      if (s.undetected != 0 || s.sdc_ops != 0 || s.ops != cell.trace.size()) {
        fail("variable-latency replay has undetected violations");
        break;
      }
    }
  });
  for (const std::string& e : errors) {
    if (!e.empty()) out.fail(e);
  }
}

}  // namespace

Outcome run_paper(const Options& opt, bool fir) {
  const Sizes z = sizes(opt.tiny);
  Outcome out;
  exec::ThreadPool pool(opt.threads);

  // Set-up is timed once before the first job and three more times after
  // every job, so its median samples the whole run, not one moment of the
  // machine. The first one is kept.
  const auto timed_setup = [&] {
    const double t0 = now_s();
    std::unique_ptr<Setup> s = make_setup(z, opt.seed, fir);
    out.setup_s.push_back(now_s() - t0);
    return s;
  };
  const std::unique_ptr<Setup> setup = timed_setup();
  PaperJob job(*setup, z, opt.seed);

  std::vector<Cell> first;
  std::uint64_t jobs = 0;
  const auto timed_phase = [&](double seconds, std::vector<double>& times) {
    const double start = now_s();
    do {
      const double t0 = now_s();
      std::vector<Cell> cells = job.run(pool, jobs, /*keep=*/jobs == 0);
      const double t = now_s() - t0;
      times.push_back(t);
      out.attempted += cells.size();
      if (jobs == 0) {
        first = std::move(cells);
      } else {
        for (std::size_t c = 0; c < cells.size(); ++c) {
          if (cells[c].digest != first[c].digest) {
            out.fail("job " + std::to_string(jobs) + " cell " +
                     std::to_string(c) + " differs from job 0");
          }
        }
      }
      ++jobs;
      for (int rep = 0; rep < 3; ++rep) (void)timed_setup();
    } while (now_s() - start < seconds);
  };

  if (!opt.trace) {
    timed_phase(opt.seconds, out.job_s);
  } else {
    // Untraced half first (the overhead baseline), then the traced half,
    // kept short so every span lands within 10 s of the trace origin (the
    // export keeps nanosecond precision there).
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
    // Every scalar simulator step of a job: the op traces and the stress
    // extraction (which also steps the timing simulator).
    double gate_steps = 0.0;
    double replay_ops = 0.0;
    for (const MultiplierNetlist& m : setup->mults) {
      const double steps =
          static_cast<double>(z.ops * static_cast<std::size_t>(z.years) +
                              z.stress_vectors);
      gate_steps += static_cast<double>(m.netlist.num_gates()) * steps;
      const double replays =
          m.arch == MultiplierArch::kArray
              ? 1.0
              : 1.0 + 3.0 * static_cast<double>(kVlPeriodFracs.size());
      replay_ops += replays * static_cast<double>(z.ops) * z.years;
    }
    out.trace_info = {
        {"traced_jobs", static_cast<double>(out.traced_job_s.size())},
        {"gate_steps_per_job", gate_steps},
        {"replay_ops_per_job", replay_ops},
        {"gate_words_per_job", 0.0}};
  }
  out.peak_rss_mb = self_peak_rss_mb();

  check_cells(*setup, z, opt.seed, pool, first, out);
  Digest d;
  for (const Cell& c : first) d.mix(c.digest);
  out.sim_digest = d.value();
  out.context = {{"cells_per_job", static_cast<double>(job.cells())},
                 {"ops_per_cell", static_cast<double>(z.ops)},
                 {"jobs", static_cast<double>(jobs)}};
  return out;
}

}  // namespace perfbench
