// Fault-injection & resilience evaluation (extension, docs/FAULTS.md).
//
// The paper's pitch is that the Razor + AHL architecture *tolerates*
// aging-induced timing failures; this bench measures that claim instead of
// assuming it. It sweeps fault kind x aging year on the 16x16
// column-bypassing multiplier and reports, as JSON on stdout:
//
//  - detection coverage of the Razor bank over every timing violation
//    (detected / (detected + metastability escapes + past-shadow-window));
//  - silent-data-corruption rate (wrong product committed per 10k ops);
//  - throughput degradation paid for surviving the faults;
//  - an error-storm demo showing the AHL graceful-degradation fallback
//    engaging under a delay-fault storm and recovering once it subsides.
//
// Expectations: in-window delay outliers are detected at >= 99% coverage
// (the escape channel is the narrow metastability window); out-of-window
// outliers (huge factors) defeat the shadow latch and produce nonzero SDC;
// stuck-at/transient faults are timing-invisible, so whatever the judging
// logic does not mask becomes SDC — the quantitative argument for pairing
// Razor with a functional checker if SDC matters.

#include <cstdio>

#include "bench/common.hpp"
#include "src/fault/campaign_spec.hpp"
#include "src/report/json.hpp"

using namespace agingsim;
using namespace agingsim::bench;

namespace {

struct CampaignPoint {
  const char* label;
  FaultKind kind;
  double delay_factor;  // meaningful for kDelayOutlier only
  int sites_per_trial;
};

void emit_campaign(JsonWriter& json, const CampaignPoint& point, int year,
                   const FaultCampaignStats& s) {
  json.begin_object();
  json.key("fault").value(point.label);
  json.key("kind").value(fault_kind_name(point.kind));
  if (point.kind == FaultKind::kDelayOutlier) {
    json.key("delay_factor").value(point.delay_factor);
  }
  json.key("aging_years").value(year);
  json.key("sites_per_trial").value(point.sites_per_trial);
  json.key("detected_violations").value(s.detected_violations);
  json.key("escaped_violations").value(s.escaped_violations);
  json.key("uncovered_violations").value(s.uncovered_violations);
  json.key("detection_coverage").value(s.detection_coverage);
  json.key("sdc_ops").value(s.sdc_ops);
  json.key("sdc_per_10k_ops").value(s.sdc_per_10k_ops);
  json.key("masked_faults").value(s.masked_faults);
  json.key("trials_with_sdc").value(s.trials_with_sdc);
  json.key("avg_cycles_baseline").value(s.avg_cycles_baseline);
  json.key("avg_cycles_faulty").value(s.avg_cycles_faulty);
  json.key("throughput_degradation").value(s.throughput_degradation);
  json.key("baseline_errors_per_10k_ops")
      .value(s.baseline_errors_per_10k_ops);
  json.end_object();
}

}  // namespace

static int bench_body() {
  const TechLibrary& lib = tech();
  // The default campaign spec (docs/FAULTS.md): CB16 at 0.58 x the critical
  // path, skip 7, and a non-ideal Razor whose 5 ps metastability window is
  // the residual SDC channel of a real Razor bank.
  FaultCampaignSpec spec;
  spec.ops = std::max<std::size_t>(400, default_ops() / 10);
  const FaultCampaignSetup setup(spec, lib);
  const MultiplierNetlist& cb16 = setup.mult;
  const double crit = setup.crit_ps;
  const std::size_t ops = spec.ops;
  const auto& pats = setup.patterns;
  const VlSystemConfig& cfg = setup.system;

  const BtiModel bti = BtiModel::calibrated(lib);
  AgingScenario scenario(cb16.netlist, lib, bti, 0xFA17, 1000);

  const CampaignPoint points[] = {
      {"stuck-at-0", FaultKind::kStuckAt0, 1.0, 1},
      {"stuck-at-1", FaultKind::kStuckAt1, 1.0, 1},
      {"transient", FaultKind::kTransient, 1.0, 4},
      {"delay-outlier (in-window)", FaultKind::kDelayOutlier, 8.0, 3},
      {"delay-outlier (out-of-window)", FaultKind::kDelayOutlier, 60.0, 3},
  };

  JsonWriter json;
  json.begin_object();
  json.key("bench").value("fault_campaign");
  json.key("multiplier").value("column-bypass 16x16");
  json.key("critical_path_ps").value(crit);
  json.key("period_ps").value(cfg.period_ps);
  json.key("skip").value(cfg.ahl.skip);
  json.key("metastability_window_ps")
      .value(cfg.razor.metastability_window_ps);
  json.key("ops_per_trial").value(static_cast<std::uint64_t>(ops));

  json.key("campaigns").begin_array();
  for (const int year : {0, 7}) {
    const std::vector<double> scales =
        year == 0 ? std::vector<double>{}
                  : scenario.delay_scales_at(static_cast<double>(year));
    const double dvth =
        year == 0 ? 0.0 : scenario.mean_dvth_at(static_cast<double>(year));
    for (const CampaignPoint& point : points) {
      FaultCampaignConfig cc;
      cc.kind = point.kind;
      cc.trials = 12;
      cc.sites_per_trial = point.sites_per_trial;
      cc.delay_factor = point.delay_factor;
      cc.seed = 0xFA17 + static_cast<std::uint64_t>(year);
      FaultCampaign campaign(cb16, lib, cfg, cc);
      emit_campaign(json, point, year, campaign.run(pats, scales, dvth));
    }
  }
  json.end_array();

  // Error-storm demo: a delay-outlier cluster on the output cone (an aged
  // final adder row) for the first half of the stream, healthy silicon for
  // the second half. At half the worst-case delay — the soundest period the
  // contract allows — the faulted segment's one-cycle error rate sits near
  // 30%, far past the storm threshold, while the clean segment stays quiet;
  // two cycles always cover the worst path, so the fallback is safe.
  {
    const FaultOverlay storm_overlay =
        output_cone_delay_overlay(cb16.netlist, 20.0);
    const auto faulty = compute_op_trace(cb16, lib, pats,
                                         TraceOptions{.faults = &storm_overlay});
    const auto clean = compute_op_trace(cb16, lib, pats);
    std::vector<OpTrace> stream = faulty;
    stream.insert(stream.end(), clean.begin(), clean.end());

    VlSystemConfig storm_cfg = cfg;
    storm_cfg.period_ps = 0.5 * max_delay_ps(stream);
    storm_cfg.ahl.storm_fallback = true;
    storm_cfg.ahl.storm_error_threshold = 0.20;
    VariableLatencySystem with_fallback(cb16, lib, storm_cfg);
    const RunStats on = with_fallback.run(stream);

    VlSystemConfig no_storm = storm_cfg;
    no_storm.ahl.storm_fallback = false;
    VariableLatencySystem without_fallback(cb16, lib, no_storm);
    const RunStats off = without_fallback.run(stream);

    json.key("storm_demo").begin_object();
    json.key("period_ps").value(storm_cfg.period_ps);
    json.key("storm_error_threshold")
        .value(storm_cfg.ahl.storm_error_threshold);
    json.key("storm_engagements").value(on.storm_engagements);
    json.key("storm_recoveries").value(on.storm_recoveries);
    json.key("storm_ops").value(on.storm_ops);
    json.key("errors_with_fallback").value(on.errors);
    json.key("errors_without_fallback").value(off.errors);
    json.key("avg_cycles_with_fallback").value(on.avg_cycles);
    json.key("avg_cycles_without_fallback").value(off.avg_cycles);
    json.end_object();
  }

  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

AGINGSIM_BENCH_MAIN("bench_fault_campaign", bench_body)
