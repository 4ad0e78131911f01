// Monte-Carlo campaign engine contracts (src/mc/): byte-identical JSON for
// any thread count, byte-identical resume after a simulated kill, bit-exact
// block codec, and the statistical invariants the CI job asserts on the
// real artifact (band ordering, aging monotonicity, surface shape).

#include "src/mc/mc_campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "bench/common.hpp"
#include "src/mc/mc_report.hpp"
#include "src/report/json.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/runtime/run_error.hpp"

namespace agingsim::mc {
namespace {

namespace fs = std::filesystem;

class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("AGINGSIM_THREADS")) old_ = old;
    ::setenv("AGINGSIM_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (old_.has_value()) {
      ::setenv("AGINGSIM_THREADS", old_->c_str(), 1);
    } else {
      ::unsetenv("AGINGSIM_THREADS");
    }
  }

 private:
  std::optional<std::string> old_;
};

/// Small-but-not-trivial campaign: 3 blocks of unequal final size, two
/// evaluation years, stratification narrower than the trial count.
McCampaignConfig small_config() {
  McCampaignConfig cfg;
  cfg.width = 8;
  cfg.arches = {MultiplierArch::kColumnBypass};
  cfg.trials = 10;
  cfg.block = 4;  // blocks of 4, 4, 2
  cfg.ops = 24;
  cfg.strata = 4;
  return cfg;
}

std::string campaign_json(const McCampaign& campaign, const McResult& result) {
  JsonWriter json;
  json.begin_object();
  write_mc_json(json, campaign.config(), result, McReportOptions{});
  json.end_object();
  return json.str();
}

TEST(McCampaignTest, JsonIsByteIdenticalAcrossThreadCounts) {
  const McCampaign campaign(bench::tech(), small_config());
  std::string json1, json8;
  {
    ScopedThreadsEnv scoped("1");
    json1 = campaign_json(campaign, campaign.run());
  }
  {
    ScopedThreadsEnv scoped("8");
    json8 = campaign_json(campaign, campaign.run());
  }
  EXPECT_EQ(json1, json8);
}

TEST(McCampaignTest, JsonIsByteIdenticalAcrossBlockSizesAndThreads) {
  // A seed block traces all its (trial, year) overlays as the aging corners
  // of one sweep, so the block size decides how corners are grouped into
  // sweeps — and must decide nothing else. The JSON echoes the configured
  // block, so every result is written under the block-1 config.
  McCampaignConfig cfg = small_config();
  cfg.years = {0.0, 3.0, 7.0};  // block 8 x 3 years spans two sweeps
  std::string reference;
  std::vector<McTrialRecord> reference_records;
  for (const int block : {1, 3, 8}) {
    cfg.block = block;
    const McCampaign campaign(bench::tech(), cfg);
    for (const char* threads : {"1", "8"}) {
      SCOPED_TRACE(testing::Message()
                   << "block " << block << ", threads " << threads);
      ScopedThreadsEnv scoped(threads);
      const McResult result = campaign.run();
      McCampaignConfig written = cfg;
      written.block = 1;
      JsonWriter json;
      json.begin_object();
      write_mc_json(json, written, result, McReportOptions{});
      json.end_object();
      if (reference.empty()) {
        reference = json.str();
        reference_records = result.arches[0].records;
        continue;
      }
      EXPECT_EQ(result.arches[0].records, reference_records);
      EXPECT_EQ(json.str(), reference);
    }
  }
}

TEST(McCampaignTest, RobustRunnerMatchesPlainPath) {
  const McCampaign campaign(bench::tech(), small_config());
  const std::string plain = campaign_json(campaign, campaign.run());
  runtime::RunnerConfig config;
  config.max_retries = 0;
  runtime::RobustRunner runner(config);
  runtime::RunReport report;
  const std::string robust = campaign_json(
      campaign, campaign.run(McRunOptions{.runner = &runner,
                                          .report = &report}));
  EXPECT_EQ(plain, robust);
  EXPECT_TRUE(report.all_ok());
}

TEST(McCampaignTest, KillAndResumeIsByteIdentical) {
  const fs::path dir =
      fs::temp_directory_path() / "agingsim_mc_resume_test";
  fs::remove_all(dir);
  const McCampaign campaign(bench::tech(), small_config());
  const std::uint64_t digest = campaign.config_digest();
  ASSERT_EQ(campaign.num_units(), 3u);

  // Golden uninterrupted run, all 3 units checkpointed.
  std::string golden;
  {
    runtime::CheckpointStore store(dir, digest);
    store.load();
    runtime::RunnerConfig config;
    config.checkpoints = &store;
    runtime::RobustRunner runner(config);
    golden = campaign_json(campaign, campaign.run(
                                         McRunOptions{.runner = &runner}));
  }

  // "Kill" after the first unit: drop the checkpoints of units 1 and 2.
  ASSERT_TRUE(fs::remove(dir / "unit-000001.ckpt"));
  ASSERT_TRUE(fs::remove(dir / "unit-000002.ckpt"));

  // Resume restores unit 0 and recomputes the rest — byte-identical JSON.
  {
    ScopedThreadsEnv scoped("8");
    runtime::CheckpointStore store(dir, digest);
    ASSERT_EQ(store.load().loaded, 1u);
    runtime::RunnerConfig config;
    config.checkpoints = &store;
    runtime::RobustRunner runner(config);
    const std::string resumed = campaign_json(
        campaign, campaign.run(McRunOptions{.runner = &runner}));
    EXPECT_EQ(golden, resumed);
  }
  fs::remove_all(dir);
}

TEST(McCampaignTest, BlockCodecRoundTripsBitExactly) {
  const McCampaign campaign(bench::tech(), small_config());
  for (std::size_t block = 0; block < campaign.blocks_per_arch(); ++block) {
    const auto records = campaign.compute_block(0, block);
    EXPECT_EQ(decode_mc_block(encode_mc_block(records)), records);
  }
  EXPECT_TRUE(decode_mc_block(encode_mc_block({})).empty());
  // Truncated payloads are corrupt, not garbage records.
  const std::string payload = encode_mc_block(campaign.compute_block(0, 0));
  EXPECT_THROW(decode_mc_block(payload.substr(0, payload.size() - 1)),
               runtime::RunError);
  EXPECT_THROW(decode_mc_block(payload + "x"), runtime::RunError);
}

TEST(McCampaignTest, BandsOrderedAndAgingMonotone) {
  McCampaignConfig cfg = small_config();
  cfg.trials = 24;
  const McCampaign campaign(bench::tech(), cfg);
  const McResult result = campaign.run();
  ASSERT_EQ(result.arches.size(), 1u);
  const McArchResult& arch = result.arches[0];
  const std::size_t years = cfg.years.size();
  EXPECT_EQ(arch.trials_completed(years),
            static_cast<std::uint64_t>(cfg.trials));
  EXPECT_EQ(arch.trials_quarantined, 0u);
  EXPECT_GT(arch.fresh_critical_path_ps, 0.0);

  for (std::size_t y = 0; y < years; ++y) {
    const QuantileBand delay = delay_band(arch, years, y);
    EXPECT_GT(delay.p50, 0.0);
    EXPECT_LE(delay.p50, delay.p99);
    EXPECT_LE(delay.p99, delay.p99_99);
    const QuantileBand errors = error_band(arch, years, y);
    EXPECT_LE(errors.p50, errors.p99);
    EXPECT_LE(errors.p99, errors.p99_99);
  }

  // Aging only slows a die down: every per-trial scale at year 7 dominates
  // its year-0 counterpart (variation is shared, degradation >= 0), so the
  // per-trial max delay — and hence each band — is monotone in years.
  for (std::size_t t = 0; t < arch.trials_completed(years); ++t) {
    EXPECT_GE(arch.records[t * years + 1].max_delay_ps,
              arch.records[t * years + 0].max_delay_ps);
  }
}

TEST(McCampaignTest, FailureSurfaceIsMonotoneNonIncreasing) {
  McCampaignConfig cfg = small_config();
  cfg.trials = 24;
  const McCampaign campaign(bench::tech(), cfg);
  const McResult result = campaign.run();
  const FailureSurface surface =
      failure_surface(result.arches[0], cfg.years.size(),
                      cfg.years.size() - 1, 0.95, 1.05, 15);
  ASSERT_EQ(surface.period_ps.size(), 15u);
  ASSERT_EQ(surface.failure_probability.size(), 15u);
  for (std::size_t k = 1; k < surface.period_ps.size(); ++k) {
    EXPECT_GT(surface.period_ps[k], surface.period_ps[k - 1]);
    EXPECT_LE(surface.failure_probability[k],
              surface.failure_probability[k - 1]);
  }
  // Population-anchored axis: the sweep spans the whole 1 -> 0 transition.
  EXPECT_DOUBLE_EQ(surface.failure_probability.front(), 1.0);
  EXPECT_DOUBLE_EQ(surface.failure_probability.back(), 0.0);
}

TEST(McCampaignTest, DigestTracksSamplingConfigButNotKernel) {
  McCampaignConfig cfg = small_config();
  const McCampaign base(bench::tech(), cfg);

  // The digest never mixed the step kernel, so checkpoints written while a
  // kernel was still selectable resume unchanged: pin its value.
  EXPECT_EQ(base.config_digest(), 0x116d467fbd4da0f6ULL);

  McCampaignConfig other_seed = cfg;
  other_seed.seed ^= 1;
  EXPECT_NE(base.config_digest(),
            McCampaign(bench::tech(), other_seed).config_digest());

  McCampaignConfig other_sigma = cfg;
  other_sigma.variation.sigma_grid += 0.01;
  EXPECT_NE(base.config_digest(),
            McCampaign(bench::tech(), other_sigma).config_digest());
}

TEST(McCampaignTest, KernelsAgreeBitExactly) {
  // Trial records come from batch-kernel traces; the dense scalar oracle,
  // stepped over the same die overlays, must reproduce them exactly.
  const McCampaignConfig cfg = small_config();
  const McCampaign campaign(bench::tech(), cfg);
  const std::vector<McTrialRecord> records = campaign.compute_block(0, 0);
  const MultiplierNetlist m = build_multiplier(cfg.arches[0], cfg.width);
  const double period =
      cfg.period_frac * campaign.fresh_critical_path_ps(0);
  std::vector<McTrialRecord> oracle;
  for (std::uint64_t t = 0; t < static_cast<std::uint64_t>(cfg.block); ++t) {
    for (const std::vector<double>& scales : campaign.trial_scales(0, t)) {
      MultiplierSim sim(m, bench::tech(), scales);
      McTrialRecord rec;
      std::uint64_t violations = 0;
      for (const OperandPattern& p : campaign.patterns()) {
        const double delay = sim.apply(p.a, p.b).output_settle_ps;
        rec.max_delay_ps = std::max(rec.max_delay_ps, delay);
        if (delay > period) ++violations;
      }
      rec.errors_per_10k = static_cast<double>(violations) * 10000.0 /
                           static_cast<double>(campaign.patterns().size());
      oracle.push_back(rec);
    }
  }
  EXPECT_EQ(records, oracle);
}

TEST(McCampaignTest, RejectsDegenerateConfigs) {
  const auto reject = [](auto mutate) {
    McCampaignConfig cfg = small_config();
    mutate(cfg);
    EXPECT_THROW(McCampaign(bench::tech(), cfg), std::invalid_argument);
  };
  reject([](McCampaignConfig& c) { c.trials = 0; });
  reject([](McCampaignConfig& c) { c.block = 0; });
  reject([](McCampaignConfig& c) { c.ops = 0; });
  reject([](McCampaignConfig& c) { c.strata = 0; });
  reject([](McCampaignConfig& c) { c.arches.clear(); });
  reject([](McCampaignConfig& c) { c.years.clear(); });
  reject([](McCampaignConfig& c) { c.period_frac = 0.0; });
}

}  // namespace
}  // namespace agingsim::mc
