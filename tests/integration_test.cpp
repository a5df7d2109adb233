// End-to-end invariants: run one short campaign and check that the
// paper's qualitative findings emerge from the simulation.
#include <gtest/gtest.h>

#include "analysis/figures.h"
#include "core/study.h"
#include "obs/metrics.h"

namespace curtain {
namespace {

using analysis::Ecdf;

class StudyIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ~3 days, ~2k experiments
    study_ = new core::Study(
        core::Scenario::paper_2014().with_seed(20141105).with_scale(0.02));
    study_->run();
  }
  static void TearDownTestSuite() {
    delete study_;
    study_ = nullptr;
  }
  static const measure::RecordStore& data() { return study_->records(); }
  static core::Study* study_;
};

core::Study* StudyIntegrationTest::study_ = nullptr;

TEST_F(StudyIntegrationTest, CampaignProducedSubstantialData) {
  EXPECT_GT(data().experiment_count(), 1000u);
  EXPECT_GT(data().resolution_count(), 50000u);
  EXPECT_GT(data().probe_count(), 100000u);
}

// The obs registry saw the campaign: the headline counters every layer
// bumps are all non-zero after a default run.
TEST_F(StudyIntegrationTest, ObservabilityCountersPopulated) {
  const auto snapshot = obs::metrics().snapshot();
  EXPECT_GT(snapshot.counter_value("curtain_dns_queries_total"), 0u);
  EXPECT_GT(snapshot.counter_value("curtain_dns_cache_hits_total"), 0u);
  EXPECT_GT(snapshot.counter_value("curtain_cdn_mapping_lookups_total"), 0u);
  EXPECT_GT(snapshot.counter_value("curtain_measure_experiments_total"), 0u);
  EXPECT_GT(snapshot.counter_value("curtain_cell_client_queries_total"), 0u);
  // And the report knows where the wall-clock went.
  EXPECT_FALSE(study_->report().empty());
  EXPECT_GT(study_->report().wall_ms_total(), 0.0);
}

// Sampled resolutions carry a hop-by-hop virtual-time trace whose
// top-level spans partition the recorded resolution time exactly.
TEST_F(StudyIntegrationTest, ResolutionTracesDecomposeLatency) {
  ASSERT_GT(data().trace_count(), 0u);
  size_t checked = 0;
  for (const auto& row : data().resolutions()) {
    if (row.trace() == nullptr) continue;
    const auto& trace = *row.trace();
    ASSERT_GE(trace.spans.size(), 3u);
    EXPECT_NEAR(trace.top_level_ms(), row.resolution_ms, 1e-6);
    EXPECT_NEAR(trace.total_ms, row.resolution_ms, 1e-6);
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

// §4.1 / Table 3: Verizon is the only carrier with 100% pairing
// consistency; pool and anycast carriers sit well below it.
TEST_F(StudyIntegrationTest, VerizonUniquelyConsistent) {
  const auto stats = analysis::ldns_pair_stats(data());
  const auto& verizon = stats[3];
  EXPECT_NEAR(verizon.consistency_percent, 100.0, 0.01);
  EXPECT_EQ(verizon.pairs, verizon.client_resolvers);  // strict 1:1
  for (const size_t c : {size_t{1}, size_t{2}, size_t{5}}) {
    EXPECT_LT(stats[c].consistency_percent, 95.0)
        << data().carrier_name(static_cast<int>(c));
  }
}

// §4.1: indirect resolution everywhere — external addresses differ from
// the configured resolver addresses in every carrier.
TEST_F(StudyIntegrationTest, IndirectResolutionEverywhere) {
  const auto stats = analysis::ldns_pair_stats(data());
  for (const auto& row : stats) {
    EXPECT_GT(row.client_resolvers, 0u)
        << data().carrier_name(row.carrier_index);
    EXPECT_GE(row.external_resolvers, row.client_resolvers);
  }
}

// Table 4: only the DMZ-hosted tiers (Verizon, AT&T, a sliver of
// T-Mobile) answer the wired vantage point; SK carriers and Sprint are
// fully opaque. Traceroutes never complete.
TEST_F(StudyIntegrationTest, OpaquenessMatchesTable4) {
  const auto table = analysis::external_reachability(data());
  const auto fraction = [](const analysis::ReachabilityStats& row) {
    return row.total == 0 ? 0.0
                          : static_cast<double>(row.ping_responded) /
                                static_cast<double>(row.total);
  };
  EXPECT_GT(fraction(table[0]), 0.5);  // AT&T majority
  EXPECT_GT(fraction(table[3]), 0.5);  // Verizon majority
  EXPECT_DOUBLE_EQ(fraction(table[1]), 0.0);  // Sprint
  EXPECT_DOUBLE_EQ(fraction(table[4]), 0.0);  // SK Telecom
  EXPECT_DOUBLE_EQ(fraction(table[5]), 0.0);  // LG U+
  for (const auto& row : table) {
    EXPECT_EQ(row.traceroute_reached, 0u);
  }
}

// Fig. 3: radio technologies form ordered latency bands.
TEST_F(StudyIntegrationTest, RadioBandsOrdered) {
  const auto groups = analysis::fig3_radio_bands(data());
  const auto& att = groups.at("AT&T");
  ASSERT_TRUE(att.count("LTE"));
  const double lte_median = att.at("LTE").median();
  if (att.count("HSPAP") && att.at("HSPAP").size() > 20) {
    EXPECT_GT(att.at("HSPAP").median(), lte_median);
  }
  EXPECT_GT(lte_median, 20.0);
  EXPECT_LT(lte_median, 120.0);
}

// Fig. 4: externals are farther than client-facing resolvers where both
// respond; SK Telecom's are collocated (nearly equal).
TEST_F(StudyIntegrationTest, ExternalResolversFartherExceptSkt) {
  const auto groups = analysis::fig4_resolver_distance(data());
  const auto& sprint = groups.at("Sprint");
  ASSERT_TRUE(sprint.count("Client") && sprint.count("External"));
  EXPECT_GT(sprint.at("External").median(), sprint.at("Client").median());

  const auto& skt = groups.at("SK Telecom");
  EXPECT_NEAR(skt.at("External").median(), skt.at("Client").median(),
              skt.at("Client").median() * 0.35);

  // Verizon/LG U+ externals never answer subscriber pings (Figs. 4/11).
  EXPECT_FALSE(groups.at("Verizon").count("External"));
  EXPECT_FALSE(groups.at("LG U+").count("External"));
}

// Fig. 7: back-to-back repeats are mostly cache hits with a ~20% miss
// tail.
TEST_F(StudyIntegrationTest, CacheEffectSecondLookups) {
  const auto groups = analysis::fig7_cache_effect(data());
  const auto& first = groups.at("1st Lookup");
  const auto& second = groups.at("2nd Lookup");
  EXPECT_LT(second.median(), first.median() * 1.05);
  // The slow tail of second lookups (misses) is a minority but exists.
  const double threshold = first.quantile(0.75);
  const double second_slow = 1.0 - second.fraction_at_or_below(threshold);
  EXPECT_GT(second_slow, 0.02);
  EXPECT_LT(second_slow, 0.45);
}

// Fig. 10: same-/24 resolvers see overlapping replica sets; cross-/24
// resolvers see mostly disjoint ones.
TEST_F(StudyIntegrationTest, CosineSimilaritySplit) {
  const auto splits = analysis::fig10_cosine(data(), /*buzzfeed=*/5);
  Ecdf same_all;
  Ecdf diff_all;
  for (const auto& [carrier, split] : splits) {
    same_all.add_all(split.same_slash24.sorted_values());
    diff_all.add_all(split.different_slash24.sorted_values());
  }
  ASSERT_GT(same_all.size(), 3u);
  ASSERT_GT(diff_all.size(), 3u);
  EXPECT_GT(same_all.median(), 0.8);
  EXPECT_LT(diff_all.median(), 0.2);
}

// §5.2: traceroute-derived egress counts are substantial for the US
// carriers (the fleet discovers a large fraction of the provisioned
// gateways over the campaign).
TEST_F(StudyIntegrationTest, EgressPointsDiscovered) {
  const auto stats = analysis::egress_points(data());
  EXPECT_GT(stats[0].egress_points, 20u);  // AT&T (110 provisioned)
  EXPECT_GT(stats[3].egress_points, 15u);  // Verizon (62 provisioned)
  // And never more than provisioned.
  for (size_t c = 0; c < stats.size(); ++c) {
    EXPECT_LE(stats[c].egress_points,
              static_cast<size_t>(
                  cellular::study_carriers()[c].egress_points));
  }
}

// Table 5: Google shows far more distinct IPs than cellular DNS, but
// similar (or fewer) /24 counts, bounded by its 30 sites.
TEST_F(StudyIntegrationTest, CensusGoogleManyIpsFewPrefixes) {
  const auto census = analysis::resolver_census(data());
  const auto local = static_cast<size_t>(measure::ResolverKind::kLocal);
  const auto google = static_cast<size_t>(measure::ResolverKind::kGoogle);
  size_t google_ips = 0;
  for (const auto& row : census) {
    google_ips += row.unique_ips[google];
    EXPECT_LE(row.unique_slash24s[google], 30u);
  }
  EXPECT_GT(google_ips, 0u);
  // For Verizon (12 externals), Google shows more IPs than the carrier.
  EXPECT_GT(census[3].unique_ips[google], census[3].unique_ips[local]);
}

// Fig. 11: the carrier's resolvers are closer than public DNS where they
// respond.
TEST_F(StudyIntegrationTest, CellDnsCloserThanPublic) {
  const auto groups = analysis::fig11_public_distance(data());
  for (const auto* carrier : {"AT&T", "Sprint", "T-Mobile", "SK Telecom"}) {
    const auto& group = groups.at(carrier);
    ASSERT_TRUE(group.count("Cell LDNS")) << carrier;
    ASSERT_TRUE(group.count("GoogleDNS")) << carrier;
    EXPECT_LT(group.at("Cell LDNS").median(), group.at("GoogleDNS").median())
        << carrier;
  }
}

// Fig. 13: local resolution is faster at the median, but public DNS has
// the shorter tail (more consistent).
TEST_F(StudyIntegrationTest, PublicResolutionSlowerButSteadier) {
  const auto groups = analysis::fig13_public_resolution(data());
  int local_faster = 0;
  int carriers = 0;
  for (const auto& [carrier, group] : groups) {
    if (!group.count("local") || !group.count("GoogleDNS")) continue;
    ++carriers;
    if (group.at("local").median() < group.at("GoogleDNS").median()) {
      ++local_faster;
    }
  }
  ASSERT_GT(carriers, 4);
  EXPECT_GE(local_faster, carriers - 1);
}

// The headline (abstract): public DNS replicas perform equal-or-better a
// large majority of the time.
TEST_F(StudyIntegrationTest, HeadlinePublicEqualOrBetter) {
  const double headline =
      analysis::headline_public_equal_or_better(data());
  EXPECT_GT(headline, 0.60);
}

// Fig. 14's shape: a large mass exactly at zero (same /24 cluster), the
// remainder split to both sides.
TEST_F(StudyIntegrationTest, Fig14MassAtZero) {
  const auto groups = analysis::fig14_public_replica_delta(data());
  uint64_t zero = 0;
  uint64_t total = 0;
  for (const auto& [carrier, group] : groups) {
    for (const auto& [kind, cdf] : group) {
      total += cdf.size();
      for (const double v : cdf.sorted_values()) {
        if (v == 0.0) ++zero;
      }
    }
  }
  ASSERT_GT(total, 100u);
  const double zero_fraction = static_cast<double>(zero) / static_cast<double>(total);
  EXPECT_GT(zero_fraction, 0.2);
  EXPECT_LT(zero_fraction, 0.95);
}

// Fig. 2: users routinely observe replicas 50%+ slower than their best.
TEST_F(StudyIntegrationTest, ReplicaPenaltiesSubstantial) {
  const auto penalties = analysis::fig2_replica_penalty(data());
  int carriers_with_penalty = 0;
  for (const auto& [carrier, cdf] : penalties) {
    if (cdf.size() < 20) continue;
    if (cdf.quantile(0.9) > 50.0) ++carriers_with_penalty;
  }
  EXPECT_GE(carriers_with_penalty, 3);
}

// Figs. 8/9: resolver churn is visible even for stationary clients, and
// SK carriers confine it to 1-2 /24s while US unstable carriers span
// many.
TEST_F(StudyIntegrationTest, ResolverChurnShapes) {
  const auto lg = analysis::resolver_timelines(
      data(), 5, measure::ResolverKind::kLocal);
  size_t max_ips = 0;
  for (const auto& timeline : lg) {
    max_ips = std::max(max_ips, timeline.unique_ips());
    EXPECT_LE(timeline.unique_slash24s(), 2u);
  }
  EXPECT_GT(max_ips, 5u);  // LG U+ churns hard (65 IPs in two weeks)

  const auto verizon_static = analysis::static_resolver_timelines(
      data(), 3, measure::ResolverKind::kLocal);
  size_t verizon_max = 0;
  for (const auto& timeline : verizon_static) {
    verizon_max = std::max(verizon_max, timeline.unique_ips());
  }
  EXPECT_LE(verizon_max, 6u);  // stable mappings
}

// Fig. 12: Google's anycast still shows multiple /24s per client.
TEST_F(StudyIntegrationTest, GoogleResolverChurn) {
  size_t multi = 0;
  size_t total = 0;
  for (int c = 0; c < 6; ++c) {
    for (const auto& timeline : analysis::resolver_timelines(
             data(), c, measure::ResolverKind::kGoogle)) {
      if (timeline.times.size() < 10) continue;
      ++total;
      if (timeline.unique_slash24s() > 1) ++multi;
    }
  }
  ASSERT_GT(total, 10u);
  EXPECT_GT(static_cast<double>(multi) / static_cast<double>(total), 0.5);
}

}  // namespace
}  // namespace curtain
