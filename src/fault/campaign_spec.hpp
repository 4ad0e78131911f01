#pragma once

// One fault campaign as both front-ends describe it: `agingrun --campaign
// fault` takes it as flags, agingd's `campaign` method as JSON params
// (docs/FAULTS.md, "Campaign parameters"). The spec holds the only
// default, parse and range check of each parameter and the only recipe
// that turns them into a multiplier, workload, system config and
// FaultCampaign, so one spec yields the same stats from either front-end.

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/vl_multiplier.hpp"
#include "src/fault/campaign.hpp"
#include "src/report/json.hpp"

namespace agingsim {

struct FaultCampaignSpec {
  std::string arch = "cb";  ///< am | cb | rb
  int width = 16;
  int trials = 48;
  std::size_t ops = 1500;  ///< operations per trial
  int sites = 2;           ///< fault sites per trial
  FaultKind kind = FaultKind::kDelayOutlier;
  double delay_factor = 8.0;  ///< kind = delay only
  double period_frac = 0.58;  ///< cycle period / fresh critical path
  std::uint64_t seed = 0xFA17;

  /// Parameter names, as agingd's JSON keys. agingrun's flags are the same
  /// names with a leading "--" and '-' for '_' (--delay-factor).
  static constexpr std::array<std::string_view, 9> kKeys = {
      "arch", "width", "trials", "ops", "sites",
      "kind", "delay_factor", "period_frac", "seed"};

  /// True for the parameters whose value is a name (arch, kind) rather
  /// than a number — the JSON kind agingd requires of the member.
  static bool is_name_key(std::string_view key) noexcept {
    return key == "arch" || key == "kind";
  }

  /// The one parse and range check of parameter `key`. The whole text must
  /// parse: integers are decimal (the seed may also be 0x-hex), numbers
  /// finite. On an unknown key, malformed text or an out-of-range value,
  /// returns false with a message in *error and leaves the spec unchanged.
  bool set(std::string_view key, std::string_view text, std::string* error);

  MultiplierArch multiplier_arch() const;
  /// `kind` spelled as set() accepts it ("delay", not "delay-outlier").
  const char* kind_name() const noexcept;
  /// The paper's AHL skip of 7, clamped below the width for narrow ones.
  int skip() const noexcept { return std::min(7, width - 1); }
};

/// "am" | "cb" | "rb" -> architecture; nullopt for anything else.
std::optional<MultiplierArch> multiplier_arch_from_name(std::string_view name);

/// Everything a spec builds, in dependency order: the multiplier, its fresh
/// critical path, the uniform workload of Rng(0xA61A5), the system config
/// (period = period_frac x critical path, AHL skip(), Razor window 5 ps
/// with escape probability 0.5) and the campaign. Not copyable —
/// `campaign` refers to `mult`.
struct FaultCampaignSetup {
  FaultCampaignSetup(const FaultCampaignSpec& spec, const TechLibrary& tech);
  FaultCampaignSetup(const FaultCampaignSetup&) = delete;
  FaultCampaignSetup& operator=(const FaultCampaignSetup&) = delete;

  MultiplierNetlist mult;
  double crit_ps;
  std::vector<OperandPattern> patterns;
  VlSystemConfig system;
  FaultCampaign campaign;
};

/// The members of the `stats` object both front-ends report.
void write_stats_json(JsonWriter& json, const FaultCampaignStats& s);
void write_stats_json(JsonWriter& json, const RunStats& s);

}  // namespace agingsim
