// Benchmark harness entry point: runs one workload for a fixed time and
// writes <out>/result.json, which perfbench/run.py turns into the
// benchmark's result line (and, with --trace 1, into per-layer metrics).
//
//   perfbench_harness --workload paper_uniform --seed 7 --seconds 10
//                     --trace 0 --out DIR [--agingd PATH] [--tiny]

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/harness/harness.hpp"
#include "src/core/quantile.hpp"
#include "src/report/json.hpp"

namespace perfbench {

void mix_run_stats(Digest& d, const agingsim::RunStats& s) {
  d.mix(s.ops).mix(s.one_cycle_ops).mix(s.two_cycle_ops).mix(s.errors);
  d.mix(s.undetected).mix(s.razor_escapes).mix(s.sdc_ops);
  d.mix(s.masked_faults).mix(s.total_cycles);
  d.mix(static_cast<std::uint64_t>(s.switched_to_second_block));
  d.mix(s.storm_engagements).mix(s.storm_recoveries).mix(s.storm_ops);
  d.mix(s.period_ps).mix(s.avg_cycles).mix(s.avg_latency_ps);
  d.mix(s.one_cycle_ratio).mix(s.errors_per_10k_ops).mix(s.sdc_per_10k_ops);
  d.mix(s.total_energy_fj).mix(s.comb_energy_fj).mix(s.register_energy_fj);
  d.mix(s.ahl_energy_fj).mix(s.leakage_energy_fj).mix(s.avg_power_mw);
  d.mix(s.edp_mw_ns2);
}

void mix_trace(Digest& d, const std::vector<agingsim::OpTrace>& trace) {
  d.mix(static_cast<std::uint64_t>(trace.size()));
  for (const agingsim::OpTrace& op : trace) {
    d.mix(op.a).mix(op.b).mix(op.product).mix(op.golden);
    d.mix(op.delay_ps).mix(op.switched_cap_ff);
    d.mix(static_cast<std::uint64_t>(op.in_toggles));
    d.mix(static_cast<std::uint64_t>(op.out_toggles));
    d.mix(static_cast<std::uint64_t>(op.correct));
    d.mix(static_cast<std::uint64_t>(op.fault_active));
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return agingsim::quantile::nearest_rank(v, q);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  return static_cast<bool>(out);
}

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Spin-loop rate in iterations per microsecond, in the style of a load
/// generator's calibration loop: context for comparing numbers across
/// machines, never a gated metric. Median of three 20M-iteration runs.
double spin_iterations_per_us() {
  constexpr std::uint64_t kIterations = 20'000'000;
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(rep);
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // Keeps the loop from being folded away.
      asm volatile("" : "+r"(x));
    }
    rates.push_back(static_cast<double>(kIterations) / ((now_s() - t0) * 1e6));
  }
  return median(rates);
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S"
               " --trace 0|1 --out DIR [--agingd PATH] [--tiny]\n");
}

std::string result_json(const Options& opt, const Outcome& o, double spin) {
  agingsim::JsonWriter json;
  json.begin_object();
  json.key("threads").value(opt.threads);
  json.key("kernel").value(
      agingsim::kernel_name(agingsim::resolve_kernel(agingsim::SimKernel::kAuto)));
  json.key("spin_iter_per_us").value(spin);
  json.key("attempted").value(o.attempted);
  json.key("failed").value(o.failed);
  json.key("failures").begin_array();
  for (const std::string& f : o.failures) json.value(f);
  json.end_array();
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(o.sim_digest));
  json.key("sim_digest").value(digest);
  const auto array = [&](const char* name, const std::vector<double>& v) {
    json.key(name).begin_array();
    for (const double x : v) json.value(x);
    json.end_array();
  };
  array("setup_s", o.setup_s);
  array("job_s", o.job_s);
  array("traced_job_s", o.traced_job_s);
  json.key("peak_rss_mb").value(o.peak_rss_mb);
  json.key("context").begin_object();
  for (const auto& [k, v] : o.context) json.key(k).value(v);
  json.end_object();
  json.key("trace_info").begin_object();
  for (const auto& [k, v] : o.trace_info) json.key(k).value(v);
  json.end_object();
  json.key("trace_files").begin_object();
  for (const auto& [k, v] : o.trace_files) json.key(k).value(v);
  json.end_object();
  json.end_object();
  return json.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = next() == "1";
    } else if (arg == "--out") {
      opt.out_dir = next();
    } else if (arg == "--agingd") {
      opt.agingd = next();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else {
      usage();
      return 2;
    }
  }
  if (opt.workload.empty() || opt.out_dir.empty() || !(opt.seconds > 0.0)) {
    usage();
    return 2;
  }
  // Four lanes at most, so the numbers mean the same on larger machines.
  opt.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  const double spin = spin_iterations_per_us();
  Outcome outcome;
  try {
    if (opt.workload == "paper_uniform") {
      outcome = run_paper(opt, /*fir=*/false);
    } else if (opt.workload == "paper_fir") {
      outcome = run_paper(opt, /*fir=*/true);
    } else if (opt.workload == "mc_campaign") {
      outcome = run_mc(opt);
    } else if (opt.workload == "serve_mix") {
      outcome = run_serve(opt);
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    outcome.fail(std::string("exception: ") + e.what());
    if (outcome.attempted == 0) outcome.attempted = 1;
  }
  if (!write_file(opt.out_dir + "/result.json",
                  result_json(opt, outcome, spin) + "\n")) {
    std::fprintf(stderr, "perfbench_harness: cannot write result.json\n");
    return 3;
  }
  return 0;
}
