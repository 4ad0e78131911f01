#pragma once

// Shared pieces of the benchmark harness: options, the per-run outcome
// every workload fills in, and small timing/hashing helpers.
//
// The harness drives the agingsim library from outside, through the calls
// a figure bench or a client makes. It records its own spans around each
// layer call with obs::TraceSpan (span names below are the layer names the
// per-layer metrics use) and passes the cell or request id as the span
// argument, so spans of one cell share an id.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/vl_multiplier.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        ///< test-sized inputs (tests/, never gated)
  std::string out_dir;      ///< trace and metrics files go here
  std::string agingd;       ///< daemon binary (serve_mix only)
  int threads = 1;          ///< host lanes the workload may occupy
};

/// What one workload run reports back to main(). Times are seconds unless
/// the name says otherwise.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few check messages
  std::uint64_t sim_digest = 0;
  std::vector<double> setup_s;        ///< one entry per set-up repetition
  std::vector<double> job_s;          ///< untraced jobs
  double peak_rss_mb = 0.0;
  /// Workload-specific figures printed as context (not gated).
  std::vector<std::pair<std::string, double>> context;
  /// Traced runs only: traced job times, counts and denominators the
  /// per-layer post-processing needs, and the files it reads.
  std::vector<double> traced_job_s;
  std::vector<std::pair<std::string, double>> trace_info;
  std::vector<std::pair<std::string, std::string>> trace_files;

  void fail(std::string message, std::uint64_t count = 1) {
    failed += count;
    if (failures.size() < 16) failures.push_back(std::move(message));
  }
};

Outcome run_paper(const Options& opt, bool fir);
Outcome run_mc(const Options& opt);
Outcome run_serve(const Options& opt);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 of (seed, tag): independent seeds for each input stream.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over the exact bits of every value mixed in, so two runs (or two
/// commits) agree only when every simulated statistic is bit-identical.
class Digest {
 public:
  Digest& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
    return *this;
  }
  Digest& mix(double v) { return mix(std::bit_cast<std::uint64_t>(v)); }
  Digest& mix(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ULL;
    }
    return mix(static_cast<std::uint64_t>(s.size()));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void mix_run_stats(Digest& d, const agingsim::RunStats& s);
void mix_trace(Digest& d, const std::vector<agingsim::OpTrace>& trace);

/// Nearest-rank quantile (the repo's convention, src/core/quantile.hpp).
double quantile(std::vector<double> v, double q);
/// Peak resident set size of this process, MiB.
double self_peak_rss_mb();
bool write_file(const std::string& path, const std::string& content);

}  // namespace perfbench
