#include "src/serve/chaos.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "src/core/env.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/chaos.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::serve {
namespace {

// Per-thread operation counter: each connection is driven by a single
// thread per direction, so hashing (seed, thread-local counter) yields a
// reproducible per-connection fault schedule without cross-thread locking.
std::uint64_t next_draw(std::uint64_t seed) {
  thread_local std::uint64_t counter = 0;
  return splitmix64(seed ^ splitmix64(++counter));
}

bool coin(const ServeChaosConfig& cfg, std::uint64_t draw) {
  // Top 53 bits → uniform double in [0, 1).
  const double u =
      static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
  return u < cfg.rate;
}

void maybe_stall(const ServeChaosConfig& cfg) {
  if (!cfg.stalls) return;
  const std::uint64_t draw = next_draw(cfg.seed ^ 0x57A11ull);
  if (!coin(cfg, draw)) return;
  // 200 us .. 2 ms: long enough to force partial reads/writes to overlap
  // with peer activity, short enough to keep the suite fast.
  const auto us = 200 + (draw % 1800);
  static const auto& stalls = obs::counter("serve.chaos.stalls", false);
  stalls.add();
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

struct ActiveChaos {
  std::mutex mutex;
  ServeChaosConfig config;
  bool initialised = false;
};

ActiveChaos& active() {
  static ActiveChaos state;
  return state;
}

}  // namespace

ServeChaosConfig ServeChaosConfig::from_env() {
  const auto spec = env::str_var("AGINGSIM_SERVE_CHAOS");
  if (!spec) return {};
  std::string error;
  const auto parsed = runtime::ChaosSpec::parse(*spec, "tbsd", "tbs", &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "agingsim: ignoring AGINGSIM_SERVE_CHAOS: %s; chaos"
                 " disabled\n", error.c_str());
    return {};
  }
  ServeChaosConfig cfg;
  cfg.seed = parsed->seed;
  cfg.rate = parsed->rate;
  cfg.torn_writes = parsed->has('t');
  cfg.byte_reads = parsed->has('b');
  cfg.stalls = parsed->has('s');
  cfg.disconnects = parsed->has('d');
  return cfg;
}

const ServeChaosConfig& serve_chaos() {
  auto& state = active();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.initialised) {
    state.config = ServeChaosConfig::from_env();
    state.initialised = true;
  }
  return state.config;
}

void set_serve_chaos_for_tests(const ServeChaosConfig& config) {
  auto& state = active();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.config = config;
  state.initialised = true;
}

std::size_t chaos_write_chunk(std::size_t remaining) {
  const auto& cfg = serve_chaos();
  if (!cfg.enabled() || remaining <= 1) return remaining;
  maybe_stall(cfg);
  if (!cfg.torn_writes) return remaining;
  const std::uint64_t draw = next_draw(cfg.seed ^ 0x70A2ull);
  if (!coin(cfg, draw)) return remaining;
  static const auto& torn = obs::counter("serve.chaos.torn_writes", false);
  torn.add();
  const std::size_t chunk = 1 + static_cast<std::size_t>(draw >> 32) % 8;
  return chunk < remaining ? chunk : remaining;
}

std::size_t chaos_read_clamp(std::size_t want) {
  const auto& cfg = serve_chaos();
  if (!cfg.enabled() || want <= 1) return want;
  maybe_stall(cfg);
  if (!cfg.byte_reads) return want;
  static const auto& clamped = obs::counter("serve.chaos.byte_reads", false);
  clamped.add();
  const std::size_t clamp =
      1 + static_cast<std::size_t>(next_draw(cfg.seed ^ 0xB17Eull) >> 32) % 3;
  return clamp < want ? clamp : want;
}

bool chaos_drop_write() {
  const auto& cfg = serve_chaos();
  if (!cfg.disconnects) return false;
  if (!coin(cfg, next_draw(cfg.seed ^ 0xD15Cull))) return false;
  static const auto& drops = obs::counter("serve.chaos.disconnects", false);
  drops.add();
  return true;
}

}  // namespace agingsim::serve
