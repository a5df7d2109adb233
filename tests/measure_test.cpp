#include <gtest/gtest.h>

#include <set>

#include "core/study.h"

namespace curtain::measure {
namespace {

TEST(ResolverIdentifier, UniqueNamesPerProbe) {
  const ResolverIdentifier identifier(*dns::DnsName::parse("curtain-study.net"));
  const auto a = identifier.probe_name(1, 1);
  const auto b = identifier.probe_name(1, 2);
  const auto c = identifier.probe_name(2, 1);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a.is_within(*dns::DnsName::parse("adns.curtain-study.net")));
}

TEST(ResolverIdentifier, ExtractFindsARecord) {
  std::vector<dns::ResourceRecord> answers{
      dns::ResourceRecord::a(*dns::DnsName::parse("r1.adns.curtain-study.net"),
                             net::Ipv4Addr{20, 3, 4, 5}, 0)};
  const auto ip = ResolverIdentifier::extract(answers);
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(*ip, net::Ipv4Addr(20, 3, 4, 5));
  EXPECT_FALSE(ResolverIdentifier::extract({}).has_value());
}

TEST(ResolverKindNames, Stable) {
  EXPECT_STREQ(resolver_kind_name(ResolverKind::kLocal), "local");
  EXPECT_STREQ(resolver_kind_name(ResolverKind::kGoogle), "GoogleDNS");
  EXPECT_STREQ(resolver_kind_name(ResolverKind::kOpenDns), "OpenDNS");
}

TEST(CampaignConfig, ScaledShortensDuration) {
  const auto full = CampaignConfig::scaled(1.0);
  EXPECT_DOUBLE_EQ(full.duration_days, 153.0);
  EXPECT_DOUBLE_EQ(full.participation, 0.048);
  const auto small = CampaignConfig::scaled(0.05);
  EXPECT_NEAR(small.duration_days, 7.65, 0.01);
  EXPECT_GT(small.participation, full.participation);
}

// One shared tiny study exercises the whole measurement pipeline.
class MeasurePipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ~0.6 days, a few hundred experiments
    study_ = new core::Study(
        core::Scenario::paper_2014().with_seed(7).with_scale(0.004));
    study_->run();
  }
  static void TearDownTestSuite() {
    delete study_;
    study_ = nullptr;
  }
  static core::Study* study_;
};

core::Study* MeasurePipelineTest::study_ = nullptr;

TEST_F(MeasurePipelineTest, FleetMatchesTableOne) {
  EXPECT_EQ(study_->device_count(), 158u);
}

TEST_F(MeasurePipelineTest, ExperimentsProduced) {
  EXPECT_GT(study_->records().experiment_count(), 50u);
}

TEST_F(MeasurePipelineTest, ResolutionCountsPerExperiment) {
  // 9 domains x 3 resolver kinds x 2 lookups = 54 per experiment, plus
  // possible failures still recorded.
  const auto& d = study_->records();
  EXPECT_EQ(d.resolution_count(), d.experiment_count() * 54u);
}

TEST_F(MeasurePipelineTest, SecondLookupsAreFasterTypically) {
  const auto& d = study_->records();
  double first_sum = 0.0;
  double second_sum = 0.0;
  size_t first_n = 0;
  size_t second_n = 0;
  for (const auto& r : d.resolutions()) {
    if (!r.responded || r.resolver != ResolverKind::kLocal) continue;
    if (r.second_lookup) {
      second_sum += r.resolution_ms;
      ++second_n;
    } else {
      first_sum += r.resolution_ms;
      ++first_n;
    }
  }
  ASSERT_GT(first_n, 0u);
  ASSERT_GT(second_n, 0u);
  EXPECT_LT(second_sum / static_cast<double>(second_n),
            first_sum / static_cast<double>(first_n));
}

TEST_F(MeasurePipelineTest, ExperimentContextsPopulated) {
  for (const auto& context : study_->records().experiments()) {
    EXPECT_LT(context.carrier_index, 6);
    EXPECT_FALSE(context.public_ip.is_unspecified());
    EXPECT_FALSE(context.configured_resolver.is_unspecified());
  }
}

TEST_F(MeasurePipelineTest, ReplicaProbesComeInPingHttpPairs) {
  const auto& d = study_->records();
  size_t ping = 0;
  size_t http = 0;
  for (const auto& probe : d.probes()) {
    if (probe.target_kind != ProbeTargetKind::kReplica) continue;
    (probe.is_http ? http : ping) += 1;
  }
  EXPECT_EQ(ping, http);
  EXPECT_GT(ping, 0u);
}

TEST_F(MeasurePipelineTest, ResolverObservationsIdentifyExternals) {
  const auto& d = study_->records();
  size_t responded = 0;
  for (const auto& observation : d.observations()) {
    if (observation.responded) {
      ++responded;
      EXPECT_FALSE(observation.external_ip.is_unspecified());
    }
  }
  // Identification works through every resolver kind almost always.
  EXPECT_GT(responded, d.observation_count() * 9 / 10);
}

TEST_F(MeasurePipelineTest, ObservedLocalExternalsBelongToCarrier) {
  const auto& d = study_->records();
  for (const auto& observation : d.observations()) {
    if (observation.resolver != ResolverKind::kLocal || !observation.responded) {
      continue;
    }
    const auto& context = d.context_of(observation.experiment_id);
    auto& carrier = study_->world().carrier(
        static_cast<size_t>(context.carrier_index));
    bool found = false;
    for (const auto& resolver : carrier.external_resolvers()) {
      found |= resolver->ip() == observation.external_ip;
    }
    EXPECT_TRUE(found) << observation.external_ip.to_string();
  }
}

TEST_F(MeasurePipelineTest, GoogleObservationsLandInGoogleSites) {
  const auto& d = study_->records();
  std::set<uint32_t> google_prefixes;
  for (const auto& site : study_->world().google_dns().sites()) {
    google_prefixes.insert(site.prefix.address().value());
  }
  for (const auto& observation : d.observations()) {
    if (observation.resolver != ResolverKind::kGoogle || !observation.responded) {
      continue;
    }
    EXPECT_TRUE(
        google_prefixes.count(observation.external_ip.slash24().value()));
  }
}

TEST_F(MeasurePipelineTest, TraceroutesRecorded) {
  const auto& d = study_->records();
  EXPECT_GT(d.traceroute_count(), 0u);
  size_t with_gateway_first = 0;
  size_t nonempty = 0;
  for (const auto& trace : d.traceroutes()) {
    if (trace.hop_count == 0) continue;
    ++nonempty;
    const auto& context = d.context_of(trace.experiment_id);
    const auto& carrier_name =
        cellular::study_carriers()[static_cast<size_t>(context.carrier_index)]
            .name;
    if (trace.hop(0).rfind(carrier_name, 0) == 0) {
      ++with_gateway_first;
    }
  }
  ASSERT_GT(nonempty, 0u);
  EXPECT_EQ(with_gateway_first, nonempty);  // PGW is always the first hop
}

TEST_F(MeasurePipelineTest, VantageProbesCoverObservedResolvers) {
  EXPECT_GT(study_->records().vantage_count(), 0u);
}

TEST_F(MeasurePipelineTest, DeterministicForSeed) {
  core::Study replay(
      core::Scenario::paper_2014().with_seed(7).with_scale(0.004));
  replay.run();
  const auto& a = study_->records();
  const auto& b = replay.records();
  ASSERT_EQ(a.experiment_count(), b.experiment_count());
  ASSERT_EQ(a.resolution_count(), b.resolution_count());
  // Walk both resolution streams in lockstep.
  auto b_row = b.resolutions().begin();
  for (const ResolutionRow a_row : a.resolutions()) {
    EXPECT_DOUBLE_EQ(a_row.resolution_ms, (*b_row).resolution_ms);
    ++b_row;
  }
  EXPECT_TRUE(b_row == b.resolutions().end());
}

}  // namespace
}  // namespace curtain::measure
