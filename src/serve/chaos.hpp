#pragma once

// Deterministic socket-fault injection for the serving layer
// (docs/SERVING.md). The checkpoint path earned its crash-safety claims
// through AGINGSIM_CHAOS (src/runtime/chaos.hpp); this is the same idea
// pointed at the wire: every transport path in src/serve must keep working
// when writes land one byte at a time, reads return single bytes, and the
// peer stalls or vanishes mid-frame. CI runs the whole serve test suite
// with this layer enabled.
//
// Spec: AGINGSIM_SERVE_CHAOS=seed:rate[:actions] — AGINGSIM_CHAOS's grammar
// (runtime::ChaosSpec, decimal or 0x-hex seed) — with actions a subset of
//
//   t  torn writes:   write_frame_fd emits deterministic 1..8-byte chunks
//   b  byte reads:    every read is clamped to a 1..3-byte request
//   s  stalls:        a chaos-selected op sleeps 0.2-2 ms first (slow-loris
//                     pacing on an otherwise healthy stream)
//   d  disconnects:   a chaos-selected frame write aborts partway and
//                     shuts the socket down (mid-frame disconnect)
//
// `rate` gates t/s/d per operation; `b` applies to every read while
// enabled (clamping is harmless, so there is no reason to dilute it).
// Default actions when the field is omitted: "tbs" — the loss-free set,
// safe to enable under an entire test suite. `d` kills connections and is
// only for drills that expect transport errors.
//
// Determinism: decisions come from a splitmix64 stream keyed by the seed
// and a thread-local operation counter. Each connection is driven by one
// thread on each side, so the per-connection fault sequence is reproducible
// for a given seed even though threads interleave globally.

#include <cstddef>
#include <cstdint>

namespace agingsim::serve {

struct ServeChaosConfig {
  std::uint64_t seed = 0;
  double rate = 0.0;  ///< per-op probability for t/s/d
  bool torn_writes = false;
  bool byte_reads = false;
  bool stalls = false;
  bool disconnects = false;

  bool enabled() const noexcept {
    return torn_writes || byte_reads || stalls || disconnects;
  }

  /// Parses AGINGSIM_SERVE_CHAOS (`seed:rate[:actions]`). Malformed specs
  /// warn on stderr and come back disabled — chaos must never be a way to
  /// crash the daemon at startup.
  static ServeChaosConfig from_env();
};

/// Process-wide active config: AGINGSIM_SERVE_CHAOS on first use, unless a
/// test overrode it.
const ServeChaosConfig& serve_chaos();

/// Test hook: replaces the active config (pass {} to disable). Not for
/// production paths — the daemon configures chaos via the environment.
void set_serve_chaos_for_tests(const ServeChaosConfig& config);

// --- transport hooks (called from protocol.cpp) ---------------------------

/// Next write chunk size for a buffer with `remaining` bytes left. Returns
/// `remaining` unless torn writes are enabled, in which case a
/// deterministic 1..8-byte slice (never 0). May stall first.
std::size_t chaos_write_chunk(std::size_t remaining);

/// Clamps a read request of `want` bytes (byte-at-a-time reads). Never 0.
/// May stall first.
std::size_t chaos_read_clamp(std::size_t want);

/// True when a chaos disconnect should tear down this frame write: the
/// caller writes only a deterministic prefix, shuts the socket down and
/// reports a transport error. Only fires when action `d` is armed.
bool chaos_drop_write();

}  // namespace agingsim::serve
