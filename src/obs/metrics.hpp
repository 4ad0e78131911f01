#pragma once

// Process-wide metrics registry (docs/OBSERVABILITY.md): counters, gauges
// and fixed-bucket histograms, recorded into thread-local shards and
// merged deterministically in shard-index order at snapshot time.
//
// Cost model. Every instrumentation site is compiled in unconditionally
// but guarded by one relaxed atomic load (`metrics_enabled()`); with
// recording disabled — the default — a site is a load, a predictable
// branch, and nothing else. Enabled sites do one relaxed fetch_add into a
// slot owned by the calling thread, so there is no cross-thread cache-line
// contention on hot counters and no lock anywhere near a hot path.
//
// Determinism. Counter and histogram merges are sums and gauge merges are
// maxima — all order-independent — so for a workload whose per-thread
// totals are scheduling-independent (everything in this repo; see
// docs/PERF.md) the merged snapshot is byte-identical for any thread
// count. Metrics that measure wall time or instantaneous occupancy are
// registered with `deterministic = false` and can be filtered out of a
// snapshot, which is how tests/parallel_determinism_test.cpp asserts
// 1-thread vs 8-thread snapshot equality.
//
// Naming convention: lowercase `subsystem.metric` (sim.steps_dense,
// runner.retries, checkpoint.discarded_crc). Handles come from
// `obs::counter()/gauge()/histogram()` and are stable for the process
// lifetime; idiomatic use is one function-local static per site.

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace agingsim::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
void slot_add(std::uint32_t slot, std::uint64_t delta) noexcept;
void slot_max(std::uint32_t slot, std::int64_t value) noexcept;
void hist_observe(std::uint32_t base_slot, const double* bounds,
                  std::uint32_t num_bounds, double value) noexcept;
}  // namespace detail

/// One relaxed atomic load — the entire cost of a disabled site.
inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on) noexcept;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Monotonic event count; shards sum at snapshot time.
class Counter {
 public:
  void add(std::uint64_t delta = 1) const noexcept {
    if (!metrics_enabled()) return;
    detail::slot_add(slot_, delta);
  }

 private:
  friend struct RegistryAccess;
  std::uint32_t slot_ = 0;
};

/// High-watermark value (queue depth, in-flight units): each thread keeps
/// the maximum it has seen since the last reset; shards merge by max.
class Gauge {
 public:
  void record(std::int64_t value) const noexcept {
    if (!metrics_enabled()) return;
    detail::slot_max(slot_, value);
  }

 private:
  friend struct RegistryAccess;
  std::uint32_t slot_ = 0;
};

/// Fixed-bucket histogram: bucket upper bounds are set at registration
/// (plus an implicit overflow bucket); per-shard bucket counts and an
/// integer sum of the observed values merge by addition. The handle holds
/// the bucket layout, so observe() never touches the registry.
class Histogram {
 public:
  void observe(double value) const noexcept {
    if (!metrics_enabled()) return;
    detail::hist_observe(slot_, bounds_, num_bounds_, value);
  }

 private:
  friend struct RegistryAccess;
  std::uint32_t slot_ = 0;  ///< num_bounds_+1 bucket slots, then the sum
  const double* bounds_ = nullptr;  ///< registry-owned, ascending
  std::uint32_t num_bounds_ = 0;
};

/// Registers (or looks up — registration is idempotent by name) a metric.
/// `deterministic = false` marks wall-time/occupancy metrics excluded from
/// determinism-checked snapshots. Re-registering a name with a different
/// kind throws std::logic_error. Returned references live for the process.
const Counter& counter(std::string_view name, bool deterministic = true);
const Gauge& gauge(std::string_view name, bool deterministic = true);
const Histogram& histogram(std::string_view name,
                           std::span<const double> bucket_bounds,
                           bool deterministic = true);

/// One merged metric in a snapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  bool deterministic = true;
  std::uint64_t value = 0;           ///< counter total / gauge maximum
  std::uint64_t sum = 0;             ///< histogram: sum of observations
  std::vector<double> bounds;        ///< histogram bucket upper bounds
  std::vector<std::uint64_t> buckets;  ///< histogram counts (+1 overflow)
};

/// Merged view of every registered metric, sorted by name (stable across
/// registration order, which may race between threads).
std::vector<MetricValue> metrics_snapshot(bool deterministic_only = false);

/// The snapshot as a JSON document ({"tool":"agingsim","metrics":[...]}).
std::string metrics_json(bool deterministic_only = false);

/// Atomically (tmp + rename) writes metrics_json() to `path`; returns
/// false (with a stderr diagnostic) on I/O failure — never throws, so it
/// is safe from atexit handlers.
bool write_metrics_json(const std::string& path,
                        bool deterministic_only = false);

/// Zeroes every shard of every metric. Test-only: callers must guarantee
/// no thread is concurrently recording.
void reset_metrics() noexcept;

}  // namespace agingsim::obs
