#pragma once

// Deterministic chaos injection for the campaign runtime — the software
// dual of the hardware FaultOverlay (docs/ROBUSTNESS.md). A policy is a
// seeded, rate-controlled decision function over (work unit, attempt):
// identical runs make identical chaos decisions, so every recovery path
// (retry, quarantine, resume-after-crash) can be exercised repeatably in
// CI. Enabled via AGINGSIM_CHAOS=seed:rate[:actions] with actions a subset
// of "t" (transient throw), "p" (permanent throw), "s" (cooperative stall)
// and "c" (simulated crash — the process _Exit()s with kCrashExitCode
// after a seed-determined number of completed units; scheduled by the
// RobustRunner so each crashed run still makes forward progress and a
// resume loop always terminates).

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace agingsim::runtime {

/// Exit code of a chaos-simulated crash, distinguishable from real
/// failures by resume loops (CI restarts the run while it sees this code).
inline constexpr int kCrashExitCode = 86;

enum class ChaosAction {
  kNone,
  kThrowTransient,  ///< RunError(kTransient): must be absorbed by retry
  kThrowPermanent,  ///< RunError(kPermanent): must quarantine, not abort
  kStall,           ///< busy-wait polling the cancel token (watchdog prey)
};

std::string_view chaos_action_name(ChaosAction action);

/// The one `seed:rate[:actions]` grammar of AGINGSIM_CHAOS and
/// AGINGSIM_SERVE_CHAOS (src/serve/chaos.hpp): a decimal or 0x-hex seed, a
/// rate in [0, 1], and a non-empty set of action letters.
struct ChaosSpec {
  std::uint64_t seed = 0;
  double rate = 0.0;
  std::string actions;  ///< letters from `allowed`, as given

  bool has(char action) const noexcept {
    return actions.find(action) != std::string::npos;
  }

  /// Strict whole-field parse; `actions` is `default_actions` when the
  /// field is omitted. Returns nullopt (and fills *error) for a wrong field
  /// count, a malformed field, a rate outside [0, 1], or a letter outside
  /// `allowed`.
  static std::optional<ChaosSpec> parse(std::string_view spec,
                                        std::string_view allowed,
                                        std::string_view default_actions,
                                        std::string* error = nullptr);
};

struct ChaosPolicy {
  std::uint64_t seed = 0;
  double rate = 0.0;  ///< per-(unit, attempt) injection probability
  bool throw_transient = true;
  bool throw_permanent = false;
  bool stall = false;
  bool crash = false;
  std::chrono::milliseconds stall_duration{50};

  bool enabled() const noexcept { return rate > 0.0; }

  /// ChaosSpec::parse with actions in [tpsc], default "t".
  static std::optional<ChaosPolicy> parse(std::string_view spec,
                                          std::string* error = nullptr);

  /// Policy from AGINGSIM_CHAOS; a malformed value warns once on stderr
  /// and yields a disabled policy (chaos must never break a real run).
  static ChaosPolicy from_env();

  /// Pure decision for one task attempt. Independent of process history,
  /// so a resumed campaign quarantines exactly the units an uninterrupted
  /// one would — the byte-identical-output contract survives chaos.
  ChaosAction decide(std::uint64_t unit, int attempt) const;

  /// Number of completed units after which a run under this policy
  /// simulates a crash (0 = never). Varies with `epoch` (units already
  /// checkpointed when the run started) so each resume draws a fresh crash
  /// point and the resume loop provably terminates: a crash is only
  /// scheduled after at least one more unit has been persisted.
  std::uint64_t crash_after_units(std::uint64_t epoch) const;
};

}  // namespace agingsim::runtime
