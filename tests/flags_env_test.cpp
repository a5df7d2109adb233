// Environment-knob parsing: util/flags.h primitives and the clamping the
// campaign knobs and core::Scenario::from_env apply to hostile values
// (bad ints, empty strings, out-of-range CURTAIN_SHARDS). A typo'd env var
// must fall back to defaults, never crash or smuggle a wild value into a
// campaign.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/scenario.h"
#include "util/flags.h"

namespace curtain {
namespace {

/// Sets an env var for one test and restores the prior state on scope exit
/// (the suite mutates the process environment, so tests stay independent).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

// ------------------------------------------------------------- primitives

TEST(EnvFlags, UnsetFallsBack) {
  ScopedEnv clear("CURTAIN_TEST_KNOB", nullptr);
  EXPECT_EQ(util::env_double("CURTAIN_TEST_KNOB", 1.5), 1.5);
  EXPECT_EQ(util::env_u64("CURTAIN_TEST_KNOB", 7u), 7u);
  EXPECT_EQ(util::env_string("CURTAIN_TEST_KNOB", "dflt"), "dflt");
}

TEST(EnvFlags, ParsesValidValues) {
  ScopedEnv set("CURTAIN_TEST_KNOB", "0.25");
  EXPECT_EQ(util::env_double("CURTAIN_TEST_KNOB", 1.5), 0.25);
  ScopedEnv set_int("CURTAIN_TEST_INT", "12345");
  EXPECT_EQ(util::env_u64("CURTAIN_TEST_INT", 7u), 12345u);
  EXPECT_EQ(util::env_string("CURTAIN_TEST_INT", "dflt"), "12345");
}

TEST(EnvFlags, GarbageFallsBack) {
  ScopedEnv set("CURTAIN_TEST_KNOB", "not-a-number");
  EXPECT_EQ(util::env_double("CURTAIN_TEST_KNOB", 1.5), 1.5);
  EXPECT_EQ(util::env_u64("CURTAIN_TEST_KNOB", 7u), 7u);
}

TEST(EnvFlags, TrailingJunkFallsBack) {
  // "0.5x" must not parse as 0.5: a typo'd knob silently truncating would
  // run a campaign at the wrong scale.
  ScopedEnv set("CURTAIN_TEST_KNOB", "0.5x");
  EXPECT_EQ(util::env_double("CURTAIN_TEST_KNOB", 1.5), 1.5);
  ScopedEnv set_int("CURTAIN_TEST_INT", "12abc");
  EXPECT_EQ(util::env_u64("CURTAIN_TEST_INT", 7u), 7u);
}

TEST(EnvFlags, EmptyStringFallsBack) {
  ScopedEnv set("CURTAIN_TEST_KNOB", "");
  EXPECT_EQ(util::env_double("CURTAIN_TEST_KNOB", 1.5), 1.5);
  EXPECT_EQ(util::env_u64("CURTAIN_TEST_KNOB", 7u), 7u);
  // env_string deliberately returns the empty value as-is: "" is a valid
  // string setting (e.g. CURTAIN_METRICS_OUT= disables the export).
  EXPECT_EQ(util::env_string("CURTAIN_TEST_KNOB", "dflt"), "");
}

TEST(EnvFlags, NegativeU64FallsBack) {
  ScopedEnv set("CURTAIN_TEST_KNOB", "-3");
  EXPECT_EQ(util::env_u64("CURTAIN_TEST_KNOB", 7u), 7u);
}

// --------------------------------------------------------- campaign knobs

TEST(CampaignKnobs, ScaleClampsToUnitInterval) {
  {
    ScopedEnv set("CURTAIN_SCALE", "2.5");
    EXPECT_EQ(util::campaign_scale(), 1.0);
  }
  {
    ScopedEnv set("CURTAIN_SCALE", "0");
    EXPECT_EQ(util::campaign_scale(), 0.05);  // non-positive -> default
  }
  {
    ScopedEnv set("CURTAIN_SCALE", "-1");
    EXPECT_EQ(util::campaign_scale(), 0.05);
  }
  {
    ScopedEnv set("CURTAIN_SCALE", "0.2");
    EXPECT_EQ(util::campaign_scale(), 0.2);
  }
}

TEST(CampaignKnobs, ScaleNonFiniteFallsBack) {
  // strtod parses these; a nan scale used to pass the clamp and abort the
  // scenario builder, and inf clamped to a full-scale run.
  for (const char* raw : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    ScopedEnv set("CURTAIN_SCALE", raw);
    EXPECT_EQ(util::campaign_scale(), 0.05) << raw;
  }
}

TEST(CampaignKnobs, ShardsClampTo1Through64) {
  {
    // 0 means "one worker per hardware thread" — the result depends on
    // the host, but must always land inside the clamp band.
    ScopedEnv set("CURTAIN_SHARDS", "0");
    const int workers = util::campaign_shards();
    EXPECT_GE(workers, 1);
    EXPECT_LE(workers, 64);
  }
  {
    ScopedEnv set("CURTAIN_SHARDS", "9999");
    EXPECT_EQ(util::campaign_shards(), 64);
  }
  {
    ScopedEnv set("CURTAIN_SHARDS", "garbage");
    EXPECT_EQ(util::campaign_shards(), 1);
  }
  {
    ScopedEnv set("CURTAIN_SHARDS", "4");
    EXPECT_EQ(util::campaign_shards(), 4);
  }
}

TEST(CampaignKnobs, CohortsClampTo0Through64) {
  {
    ScopedEnv clear("CURTAIN_COHORTS", nullptr);
    EXPECT_EQ(util::campaign_cohorts(), 0);  // 0 = auto-size
  }
  {
    ScopedEnv set("CURTAIN_COHORTS", "0");
    EXPECT_EQ(util::campaign_cohorts(), 0);
  }
  {
    ScopedEnv set("CURTAIN_COHORTS", "9999");
    EXPECT_EQ(util::campaign_cohorts(), 64);
  }
  {
    ScopedEnv set("CURTAIN_COHORTS", "garbage");
    EXPECT_EQ(util::campaign_cohorts(), 0);
  }
  {
    ScopedEnv set("CURTAIN_COHORTS", "-3");
    EXPECT_EQ(util::campaign_cohorts(), 0);  // negative u64 parse fails
  }
  {
    ScopedEnv set("CURTAIN_COHORTS", "7");
    EXPECT_EQ(util::campaign_cohorts(), 7);
  }
}

TEST(CampaignKnobs, SeedDefaultIsTheImc14Date) {
  ScopedEnv clear("CURTAIN_SEED", nullptr);
  EXPECT_EQ(util::study_seed(), 20141105u);
}

TEST(CampaignKnobs, ProfileStallFactorClampsTo1Point5Through100) {
  {
    ScopedEnv clear("CURTAIN_PROFILE_STALL_K", nullptr);
    EXPECT_EQ(util::profile_stall_factor(), 4.0);
  }
  {
    // Below the floor a watchdog would flag normal scheduling jitter.
    ScopedEnv set("CURTAIN_PROFILE_STALL_K", "0.5");
    EXPECT_EQ(util::profile_stall_factor(), 1.5);
  }
  {
    ScopedEnv set("CURTAIN_PROFILE_STALL_K", "1e9");
    EXPECT_EQ(util::profile_stall_factor(), 100.0);
  }
  {
    ScopedEnv set("CURTAIN_PROFILE_STALL_K", "garbage");
    EXPECT_EQ(util::profile_stall_factor(), 4.0);
  }
  {
    ScopedEnv set("CURTAIN_PROFILE_STALL_K", "6");
    EXPECT_EQ(util::profile_stall_factor(), 6.0);
  }
}

TEST(CampaignKnobs, ProfileStallFactorNonFiniteFallsBack) {
  // nan compares false against both clamps and used to disable the
  // stall watchdog silently.
  for (const char* raw : {"nan", "inf", "-inf"}) {
    ScopedEnv set("CURTAIN_PROFILE_STALL_K", raw);
    EXPECT_EQ(util::profile_stall_factor(), 4.0) << raw;
  }
}

TEST(CampaignKnobs, BlockRowsClampTo256Through1M) {
  {
    ScopedEnv clear("CURTAIN_BLOCK_ROWS", nullptr);
    EXPECT_EQ(util::record_block_rows(), 8192u);
  }
  {
    ScopedEnv set("CURTAIN_BLOCK_ROWS", "1");
    EXPECT_EQ(util::record_block_rows(), 256u);
  }
  {
    ScopedEnv set("CURTAIN_BLOCK_ROWS", "99999999");
    EXPECT_EQ(util::record_block_rows(), 1048576u);
  }
  {
    ScopedEnv set("CURTAIN_BLOCK_ROWS", "garbage");
    EXPECT_EQ(util::record_block_rows(), 8192u);
  }
  {
    ScopedEnv set("CURTAIN_BLOCK_ROWS", "4096");
    EXPECT_EQ(util::record_block_rows(), 4096u);
  }
}

TEST(CampaignKnobs, RssCeilingDefaultsToUnenforced) {
  {
    ScopedEnv clear("CURTAIN_RSS_CEILING_MB", nullptr);
    EXPECT_EQ(util::rss_ceiling_mb(), 0u);  // 0 = unenforced
  }
  {
    ScopedEnv set("CURTAIN_RSS_CEILING_MB", "1500");
    EXPECT_EQ(util::rss_ceiling_mb(), 1500u);
  }
  {
    ScopedEnv set("CURTAIN_RSS_CEILING_MB", "garbage");
    EXPECT_EQ(util::rss_ceiling_mb(), 0u);
  }
  {
    ScopedEnv set("CURTAIN_RSS_CEILING_MB", "99999999");
    EXPECT_EQ(util::rss_ceiling_mb(), 1048576u);
  }
}

// ----------------------------------------------------------- the listing

// Every knob the tree reads must appear in describe_flags(), with its
// resolved value — the table *is* the inventory, so a knob added without
// a listing row (or with a stale default) fails here.
TEST(FlagListing, EveryKnobListedWithResolvedValue) {
  ScopedEnv scale("CURTAIN_SCALE", "0.25");
  ScopedEnv rows("CURTAIN_BLOCK_ROWS", "512");
  ScopedEnv ceiling("CURTAIN_RSS_CEILING_MB", nullptr);
  const auto flags = util::describe_flags();
  ASSERT_EQ(flags.size(), 11u);

  static constexpr const char* kKnobs[] = {
      "CURTAIN_SCALE",          "CURTAIN_SEED",
      "CURTAIN_SHARDS",         "CURTAIN_COHORTS",
      "CURTAIN_BLOCK_ROWS",     "CURTAIN_RSS_CEILING_MB",
      "CURTAIN_METRICS_OUT",    "CURTAIN_PROFILE_OUT",
      "CURTAIN_PROFILE_STALL_K", "CURTAIN_LOG",
      "CURTAIN_BENCH_CSV_DIR"};
  ASSERT_EQ(std::size(kKnobs), flags.size());
  for (size_t i = 0; i < flags.size(); ++i) {
    EXPECT_STREQ(flags[i].name, kKnobs[i]) << "declaration order changed";
    EXPECT_NE(flags[i].kind[0], '\0');
    EXPECT_NE(flags[i].help[0], '\0');
    EXPECT_NE(flags[i].fallback[0], '\0');
  }
  EXPECT_EQ(flags[0].value, "0.2500");       // env override resolved
  EXPECT_EQ(flags[4].value, "512");          // clamp applied before listing
  EXPECT_EQ(flags[5].value, "0");            // unset -> rendered default
  EXPECT_STREQ(flags[4].range, "[256, 1048576]");
}

// ------------------------------------------------------ Scenario::from_env

TEST(ScenarioFromEnv, ReadsAllKnobs) {
  ScopedEnv seed("CURTAIN_SEED", "42");
  ScopedEnv scale("CURTAIN_SCALE", "0.5");
  ScopedEnv shards("CURTAIN_SHARDS", "2");
  ScopedEnv cohorts("CURTAIN_COHORTS", "5");
  ScopedEnv metrics("CURTAIN_METRICS_OUT", "/tmp/m.json");
  ScopedEnv profile("CURTAIN_PROFILE_OUT", "/tmp/trace.json");
  const auto scenario = core::Scenario::from_env();
  EXPECT_EQ(scenario.seed, 42u);
  EXPECT_EQ(scenario.scale, 0.5);
  EXPECT_EQ(scenario.shards, 2);
  EXPECT_EQ(scenario.cohorts, 5);
  EXPECT_EQ(scenario.metrics_out, "/tmp/m.json");
  EXPECT_EQ(scenario.profile_out, "/tmp/trace.json");
}

TEST(ScenarioFromEnv, HostileValuesYieldSafeDefaults) {
  ScopedEnv seed("CURTAIN_SEED", "twenty");
  ScopedEnv scale("CURTAIN_SCALE", "");
  ScopedEnv shards("CURTAIN_SHARDS", "-8");
  ScopedEnv cohorts("CURTAIN_COHORTS", "many");
  ScopedEnv metrics("CURTAIN_METRICS_OUT", nullptr);
  ScopedEnv profile("CURTAIN_PROFILE_OUT", nullptr);
  const auto scenario = core::Scenario::from_env();
  EXPECT_EQ(scenario.seed, 20141105u);
  EXPECT_EQ(scenario.scale, 0.05);
  EXPECT_EQ(scenario.shards, 1);
  EXPECT_EQ(scenario.cohorts, 0);
  EXPECT_TRUE(scenario.metrics_out.empty());
  EXPECT_TRUE(scenario.profile_out.empty());  // profiling stays opt-in
  // A from_env scenario must always satisfy campaign_config()'s contracts.
  const auto config = scenario.campaign_config();
  EXPECT_GT(config.duration_days, 0.0);
}

TEST(ScenarioFromEnv, OutOfRangeShardsAreClamped) {
  ScopedEnv shards("CURTAIN_SHARDS", "1000000");
  EXPECT_EQ(core::Scenario::from_env().shards, 64);
}

TEST(ScenarioSetters, WithScaleShardsAndCohortsClampLikeEnv) {
  core::Scenario scenario;
  EXPECT_EQ(scenario.with_scale(-2.0).scale, 0.05);
  EXPECT_EQ(scenario.with_scale(9.0).scale, 1.0);
  EXPECT_EQ(scenario.with_shards(0).shards, 1);
  EXPECT_EQ(scenario.with_cohorts(-1).cohorts, 0);
  EXPECT_EQ(scenario.with_cohorts(999).cohorts, 64);
  EXPECT_EQ(scenario.with_cohorts(7).cohorts, 7);
}

}  // namespace
}  // namespace curtain
