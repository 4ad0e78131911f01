#include "src/fault/campaign_spec.hpp"

#include <type_traits>

#include "src/core/env.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

constexpr std::array<std::pair<const char*, FaultKind>, 4> kKinds = {{
    {"stuck0", FaultKind::kStuckAt0},
    {"stuck1", FaultKind::kStuckAt1},
    {"transient", FaultKind::kTransient},
    {"delay", FaultKind::kDelayOutlier},
}};

}  // namespace

std::optional<MultiplierArch> multiplier_arch_from_name(std::string_view name) {
  if (name == "am") return MultiplierArch::kArray;
  if (name == "cb") return MultiplierArch::kColumnBypass;
  if (name == "rb") return MultiplierArch::kRowBypass;
  return std::nullopt;
}

bool FaultCampaignSpec::set(std::string_view key, std::string_view text,
                            std::string* error) {
  const auto fail = [&](const char* why) {
    if (error != nullptr) *error = std::string(key) + " " + why;
    return false;
  };
  const auto integer = [&](long lo, long hi, auto& out, const char* why) {
    const auto v = env::parse_long(text);
    if (!v || *v < lo || *v > hi) return fail(why);
    out = static_cast<std::remove_reference_t<decltype(out)>>(*v);
    return true;
  };
  const auto positive = [&](double hi, double& out, const char* why) {
    const auto v = env::parse_double(text);
    if (!v || !(*v > 0.0) || *v > hi) return fail(why);
    out = *v;
    return true;
  };
  constexpr long kInt = std::numeric_limits<int>::max();
  constexpr long kLong = std::numeric_limits<long>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  if (key == "width") {
    return integer(2, 32, width, "must be an integer in [2, 32]");
  }
  if (key == "trials") {
    return integer(1, kInt, trials, "must be an integer >= 1");
  }
  if (key == "ops") return integer(1, kLong, ops, "must be an integer >= 1");
  if (key == "sites") {
    return integer(1, 64, sites, "must be an integer in [1, 64]");
  }
  if (key == "delay_factor") {
    return positive(kInf, delay_factor, "must be a number > 0");
  }
  if (key == "period_frac") {
    return positive(4.0, period_frac, "must be a number in (0, 4]");
  }
  if (key == "seed") {
    const auto v = env::parse_u64(text, 0);
    if (!v) return fail("must be an unsigned 64-bit integer");
    seed = *v;
    return true;
  }
  if (key == "arch") {
    if (!multiplier_arch_from_name(text)) return fail("must be am|cb|rb");
    arch = std::string(text);
    return true;
  }
  if (key == "kind") {
    for (const auto& [name, k] : kKinds) {
      if (name == text) {
        kind = k;
        return true;
      }
    }
    return fail("must be stuck0|stuck1|transient|delay");
  }
  return fail("is not a campaign parameter");
}

MultiplierArch FaultCampaignSpec::multiplier_arch() const {
  return multiplier_arch_from_name(arch).value();
}

const char* FaultCampaignSpec::kind_name() const noexcept {
  for (const auto& [name, k] : kKinds) {
    if (k == kind) return name;
  }
  return "?";
}

FaultCampaignSetup::FaultCampaignSetup(const FaultCampaignSpec& spec,
                                       const TechLibrary& tech)
    : mult(build_multiplier(spec.multiplier_arch(), spec.width)),
      crit_ps(critical_path_ps(mult, tech)),
      patterns([&] {
        Rng rng(0xA61A5);
        return uniform_patterns(rng, spec.width, spec.ops);
      }()),
      system([&] {
        VlSystemConfig cfg;
        cfg.period_ps = spec.period_frac * crit_ps;
        cfg.ahl.width = spec.width;
        cfg.ahl.skip = spec.skip();
        cfg.razor.metastability_window_ps = 5.0;
        cfg.razor.edge_escape_prob = 0.5;
        return cfg;
      }()),
      campaign(mult, tech, system,
               FaultCampaignConfig{.kind = spec.kind,
                                   .trials = spec.trials,
                                   .sites_per_trial = spec.sites,
                                   .delay_factor = spec.delay_factor,
                                   .seed = spec.seed}) {}

void write_stats_json(JsonWriter& json, const FaultCampaignStats& s) {
  json.key("trials").value(s.trials);
  json.key("trials_quarantined").value(s.trials_quarantined);
  json.key("ops").value(s.ops);
  json.key("faults_injected").value(s.faults_injected);
  json.key("detected_violations").value(s.detected_violations);
  json.key("escaped_violations").value(s.escaped_violations);
  json.key("uncovered_violations").value(s.uncovered_violations);
  json.key("detection_coverage").value(s.detection_coverage);
  json.key("sdc_ops").value(s.sdc_ops);
  json.key("sdc_per_10k_ops").value(s.sdc_per_10k_ops);
  json.key("masked_faults").value(s.masked_faults);
  json.key("trials_with_sdc").value(s.trials_with_sdc);
  json.key("storm_engagements").value(s.storm_engagements);
  json.key("storm_recoveries").value(s.storm_recoveries);
  json.key("avg_cycles_baseline").value(s.avg_cycles_baseline);
  json.key("avg_cycles_faulty").value(s.avg_cycles_faulty);
  json.key("throughput_degradation").value(s.throughput_degradation);
  json.key("baseline_errors_per_10k_ops")
      .value(s.baseline_errors_per_10k_ops);
}

void write_stats_json(JsonWriter& json, const RunStats& s) {
  json.key("period_ps").value(s.period_ps);
  json.key("ops").value(s.ops);
  json.key("one_cycle_ratio").value(s.one_cycle_ratio);
  json.key("errors").value(s.errors);
  json.key("errors_per_10k_ops").value(s.errors_per_10k_ops);
  json.key("avg_cycles").value(s.avg_cycles);
  json.key("avg_latency_ps").value(s.avg_latency_ps);
  json.key("avg_power_mw").value(s.avg_power_mw);
  json.key("edp_mw_ns2").value(s.edp_mw_ns2);
}

}  // namespace agingsim
