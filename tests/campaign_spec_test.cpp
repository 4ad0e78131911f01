// FaultCampaignSpec (src/fault/campaign_spec.hpp): the one default, parse
// and range check of every fault-campaign parameter, shared by agingrun's
// flags and agingd's JSON params, and the one builder behind both.

#include "src/fault/campaign_spec.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/calibration.hpp"
#include "src/serve/json.hpp"
#include "src/serve/service.hpp"

namespace agingsim {
namespace {

/// Asserts that set(key, text) is rejected with a message naming the key
/// and that the rejected call leaves the spec unchanged.
void expect_rejected(std::string_view key, std::string_view text) {
  FaultCampaignSpec spec;
  const FaultCampaignSpec before = spec;
  std::string error;
  EXPECT_FALSE(spec.set(key, text, &error)) << key << "=" << text;
  EXPECT_EQ(error.rfind(std::string(key), 0), 0u) << error;
  EXPECT_EQ(spec.arch, before.arch);
  EXPECT_EQ(spec.width, before.width);
  EXPECT_EQ(spec.trials, before.trials);
  EXPECT_EQ(spec.ops, before.ops);
  EXPECT_EQ(spec.sites, before.sites);
  EXPECT_EQ(spec.kind, before.kind);
  EXPECT_EQ(spec.delay_factor, before.delay_factor);
  EXPECT_EQ(spec.period_frac, before.period_frac);
  EXPECT_EQ(spec.seed, before.seed);
}

FaultCampaignSpec set_ok(std::string_view key, std::string_view text) {
  FaultCampaignSpec spec;
  std::string error;
  EXPECT_TRUE(spec.set(key, text, &error)) << key << "=" << text << ": "
                                           << error;
  return spec;
}

TEST(CampaignSpecTest, DefaultsAreTheDocumentedOnes) {
  const FaultCampaignSpec spec;
  EXPECT_EQ(spec.arch, "cb");
  EXPECT_EQ(spec.multiplier_arch(), MultiplierArch::kColumnBypass);
  EXPECT_EQ(spec.width, 16);
  EXPECT_EQ(spec.trials, 48);
  EXPECT_EQ(spec.ops, 1500u);
  EXPECT_EQ(spec.sites, 2);
  EXPECT_EQ(spec.kind, FaultKind::kDelayOutlier);
  EXPECT_STREQ(spec.kind_name(), "delay");
  EXPECT_DOUBLE_EQ(spec.delay_factor, 8.0);
  EXPECT_DOUBLE_EQ(spec.period_frac, 0.58);
  EXPECT_EQ(spec.seed, 0xFA17u);
  EXPECT_EQ(spec.skip(), 7);
  EXPECT_EQ(FaultCampaignSpec::kKeys.size(), 9u);
}

TEST(CampaignSpecTest, IntegerFieldsEnforceTheirRanges) {
  EXPECT_EQ(set_ok("width", "2").width, 2);
  EXPECT_EQ(set_ok("width", "32").width, 32);
  expect_rejected("width", "1");
  expect_rejected("width", "33");
  EXPECT_EQ(set_ok("trials", "1").trials, 1);
  expect_rejected("trials", "0");
  expect_rejected("trials", "-4");
  expect_rejected("trials", "4294967296");  // past int
  EXPECT_EQ(set_ok("ops", "1").ops, 1u);
  EXPECT_EQ(set_ok("ops", "200000").ops, 200000u);
  expect_rejected("ops", "0");
  EXPECT_EQ(set_ok("sites", "1").sites, 1);
  EXPECT_EQ(set_ok("sites", "64").sites, 64);
  expect_rejected("sites", "0");
  expect_rejected("sites", "65");
}

TEST(CampaignSpecTest, NumberFieldsEnforceTheirRanges) {
  EXPECT_DOUBLE_EQ(set_ok("delay_factor", "0.5").delay_factor, 0.5);
  expect_rejected("delay_factor", "0");
  expect_rejected("delay_factor", "-2");
  EXPECT_DOUBLE_EQ(set_ok("period_frac", "4").period_frac, 4.0);
  EXPECT_DOUBLE_EQ(set_ok("period_frac", "1e-3").period_frac, 1e-3);
  expect_rejected("period_frac", "0");
  expect_rejected("period_frac", "4.01");
  expect_rejected("period_frac", "nan");
  expect_rejected("delay_factor", "inf");
}

TEST(CampaignSpecTest, SeedTakesDecimalOrHexAndNothingElse) {
  EXPECT_EQ(set_ok("seed", "77").seed, 77u);
  EXPECT_EQ(set_ok("seed", "0x10").seed, 0x10u);
  EXPECT_EQ(set_ok("seed", "18446744073709551615").seed,
            18446744073709551615ull);
  expect_rejected("seed", "zz");
  expect_rejected("seed", "-1");
  expect_rejected("seed", "18446744073709551616");  // overflow
  expect_rejected("seed", "");
}

TEST(CampaignSpecTest, NameFieldsAcceptExactSpellingsOnly) {
  EXPECT_EQ(set_ok("arch", "am").multiplier_arch(), MultiplierArch::kArray);
  EXPECT_EQ(set_ok("arch", "rb").multiplier_arch(),
            MultiplierArch::kRowBypass);
  // `all` is agingrun's mc-only spelling; a fault campaign has one arch.
  expect_rejected("arch", "all");
  expect_rejected("arch", "CB");
  const std::pair<const char*, FaultKind> kinds[] = {
      {"stuck0", FaultKind::kStuckAt0},
      {"stuck1", FaultKind::kStuckAt1},
      {"transient", FaultKind::kTransient},
      {"delay", FaultKind::kDelayOutlier}};
  for (const auto& [name, kind] : kinds) {
    const FaultCampaignSpec spec = set_ok("kind", name);
    EXPECT_EQ(spec.kind, kind);
    EXPECT_STREQ(spec.kind_name(), name);
  }
  expect_rejected("kind", "delay-outlier");
  EXPECT_TRUE(FaultCampaignSpec::is_name_key("arch"));
  EXPECT_TRUE(FaultCampaignSpec::is_name_key("kind"));
  EXPECT_FALSE(FaultCampaignSpec::is_name_key("seed"));
}

TEST(CampaignSpecTest, RejectsTrailingGarbageAndNonIntegralIntegers) {
  for (const char* key : {"width", "trials", "ops", "sites"}) {
    expect_rejected(key, "8junk");
    expect_rejected(key, "zz");
    expect_rejected(key, "8.0");
    expect_rejected(key, "1e1");
    expect_rejected(key, "");
    expect_rejected(key, "99999999999999999999");  // overflows long
  }
  expect_rejected("delay_factor", "2x");
  expect_rejected("period_frac", "0.5 ");
  expect_rejected("seed", "8junk");
}

TEST(CampaignSpecTest, UnknownKeyIsRejected) {
  expect_rejected("years", "3");
  expect_rejected("delay-factor", "3");  // flag spelling, not the key
}

TEST(CampaignSpecTest, SkipIsClampedBelowNarrowWidths) {
  FaultCampaignSpec spec;
  for (int width = 2; width <= 32; ++width) {
    spec.width = width;
    EXPECT_EQ(spec.skip(), width < 8 ? width - 1 : 7) << width;
  }
}

TEST(CampaignSpecTest, BuilderWiresPeriodSkipAndRazorWindow) {
  FaultCampaignSpec spec;
  spec.width = 8;
  spec.ops = 40;
  spec.period_frac = 0.75;
  const FaultCampaignSetup setup(spec, paper_tech_library());
  EXPECT_EQ(setup.mult.width, 8);
  EXPECT_EQ(setup.patterns.size(), 40u);
  EXPECT_DOUBLE_EQ(setup.system.period_ps, 0.75 * setup.crit_ps);
  EXPECT_EQ(setup.system.ahl.width, 8);
  EXPECT_EQ(setup.system.ahl.skip, 7);
  EXPECT_DOUBLE_EQ(setup.system.razor.metastability_window_ps, 5.0);
  EXPECT_DOUBLE_EQ(setup.system.razor.edge_escape_prob, 0.5);
  EXPECT_EQ(setup.campaign.config().trials, spec.trials);
  EXPECT_EQ(setup.campaign.config().sites_per_trial, spec.sites);
  EXPECT_EQ(setup.campaign.config().seed, spec.seed);
}

TEST(CampaignSpecTest, NarrowWidthsBuildAndRunOneTrial) {
  for (int width = 2; width <= 7; ++width) {
    for (const char* arch : {"am", "cb", "rb"}) {
      FaultCampaignSpec spec = set_ok("arch", arch);
      spec.width = width;
      spec.trials = 1;
      spec.ops = 24;
      const FaultCampaignSetup setup(spec, paper_tech_library());
      EXPECT_EQ(setup.system.ahl.skip, width - 1);
      const FaultCampaignStats stats =
          setup.campaign.run(setup.patterns);
      EXPECT_EQ(stats.trials, 1u) << arch << width;
      EXPECT_EQ(stats.ops, 24u) << arch << width;
    }
  }
}

// --- agingd's JSON front-end ------------------------------------------------

serve::HandlerResult service_request(const std::string& params_json,
                                     const std::string& method = "campaign") {
  serve::Service service(serve::ServiceConfig{}, nullptr);
  serve::Request request;
  request.id = 1;
  request.method = method;
  const auto params = serve::parse_json(params_json);
  EXPECT_TRUE(params.has_value()) << params_json;
  request.params = params.value_or(serve::JsonValue{});
  const runtime::CancelToken cancel;
  return service.handle(request, cancel);
}

TEST(CampaignSpecTest, ServiceRejectsWrongKindedMembers) {
  const char* bad[] = {
      R"({"trials": "8"})",       // a string where a number belongs
      R"({"ops": true})",
      R"({"seed": "0x10"})",
      R"({"width": null})",
      R"({"arch": 3})",           // a number where a name belongs
      R"({"kind": ["delay"]})",
      R"({"trials": 2.5})",       // non-integral
      R"({"width": 8.0})",
      R"({"seed": -1})",
      R"({"ops": 1e3})",
      R"({"sites": 65})",         // out of range
      R"({"period_frac": 4.5})",
      R"({"arch": "all"})",
      R"({"trials": 5000})",      // past ServiceLimits::max_trials
      R"({"ops": 200001})",       // past ServiceLimits::max_ops
      R"({"stream": "yes"})",     // the daemon-only members, just as strict
      R"({"checkpoint": 1})",
      R"({"stream_every": 2.5})",
      R"({"stream_every": "2"})",
      R"({"resume_cursor": {"digest": 7, "unit_index": 0}})",
      R"({"resume_cursor": {"digest": "00", "unit_index": 1.5}})",
      R"({"resume_cursor": {"digest": "00", "unit_index": "1"}})",
  };
  // agingd's query params are read as strictly: no member silently falls
  // back to its default.
  const char* bad_query[] = {
      R"({"width": "8"})",
      R"({"width": 8.5})",
      R"({"adaptive": 1})",
      R"({"seed": -1})",
  };
  const char* bad_work[] = {
      R"({"spin_us": "5"})",
      R"({"spin_us": 2.5})",
  };
  const auto expect_bad_request = [](const serve::HandlerResult& result,
                                     const char* params) {
    EXPECT_FALSE(result.ok) << params;
    EXPECT_EQ(result.code, serve::ErrorCode::kBadRequest) << params;
    EXPECT_FALSE(result.message.empty()) << params;
  };
  for (const char* params : bad) {
    expect_bad_request(service_request(params), params);
  }
  for (const char* params : bad_query) {
    expect_bad_request(service_request(params, "query"), params);
  }
  for (const char* params : bad_work) {
    expect_bad_request(service_request(params, "work"), params);
  }
}

TEST(CampaignSpecTest, ServiceAndSetupReportTheSameStats) {
  const serve::HandlerResult served = service_request(
      R"({"arch": "rb", "width": 6, "trials": 2, "ops": 48, "seed": 77,
          "kind": "transient"})");
  ASSERT_TRUE(served.ok) << served.message;
  const auto result = serve::parse_json(served.result_json);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->str_or("kind", ""), "transient");
  EXPECT_EQ(result->u64_or("seed", 0), 77u);

  FaultCampaignSpec spec;
  const std::pair<const char*, const char*> members[] = {
      {"arch", "rb"}, {"width", "6"},  {"trials", "2"},
      {"ops", "48"},  {"seed", "77"}, {"kind", "transient"}};
  for (const auto& [key, text] : members) {
    ASSERT_TRUE(spec.set(key, text, nullptr)) << key;
  }
  const FaultCampaignSetup setup(spec, paper_tech_library());
  JsonWriter direct;
  direct.begin_object();
  write_stats_json(direct, setup.campaign.run(setup.patterns));
  direct.end_object();
  const auto expected = serve::parse_json(direct.str());
  ASSERT_TRUE(expected.has_value());
  const serve::JsonValue* stats = result->find("stats");
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->as_object().size(), expected->as_object().size());
  for (const auto& [key, value] : expected->as_object()) {
    const serve::JsonValue* got = stats->find(key);
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(got->number_token(), value.number_token()) << key;
  }
  // The response prints doubles to 10 significant digits.
  EXPECT_NEAR(result->num_or("period_ps", 0.0), setup.system.period_ps,
              1e-6 * setup.system.period_ps);
}

}  // namespace
}  // namespace agingsim
