#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

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
  dns::Section answers;
  answers.push_back(
      dns::ResourceRecord::a(*dns::DnsName::parse("r1.adns.curtain-study.net"),
                             net::Ipv4Addr{20, 3, 4, 5}, 0));
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

ExperimentContext context_of(uint64_t device_id) {
  ExperimentContext context;
  context.device_id = device_id;
  return context;
}

ProbeMeasurement probe_to(uint8_t last_octet) {
  ProbeMeasurement probe;
  probe.target_ip = net::Ipv4Addr{30, 0, 0, last_octet};
  return probe;
}

// Record identity is positional: a row carries no experiment id, belongs
// to the latest experiment appended before it, and gets its id from the
// store its block joins.
TEST(RecordStore, RowsAttachToTheLatestExperimentAndTakeIdsFromTheirStore) {
  // 1. Rows attach to the latest experiment.
  RecordStore store;
  store.add_experiment(context_of(7));
  store.add_probe(probe_to(1));
  store.add_experiment(context_of(8));
  store.add_probe(probe_to(2));
  DnsMeasurement resolution;
  resolution.domain_index = 3;
  store.add_resolution(std::move(resolution));
  TracerouteMeasurement traceroute;
  traceroute.hop_names = {"ix-Chicago"};
  store.add_traceroute(std::move(traceroute));
  store.add_observation(ResolverObservation{});
  std::vector<std::pair<uint32_t, uint64_t>> probes;
  for (const auto probe : store.probes()) {
    probes.emplace_back(probe.experiment_id, probe.context().device_id);
  }
  EXPECT_EQ(probes, (std::vector<std::pair<uint32_t, uint64_t>>{{0, 7},
                                                                {1, 8}}));
  for (const auto row : store.resolutions()) {
    EXPECT_EQ(row.experiment_id, 1u);
    EXPECT_EQ(row.context().device_id, 8u);
  }
  for (const auto row : store.traceroutes()) {
    EXPECT_EQ(row.context().device_id, 8u);
  }
  for (const auto row : store.observations()) {
    EXPECT_EQ(row.context().device_id, 8u);
  }

  // 2. A consuming store numbers experiments densely from its own count.
  // Budget 1 seals every experiment into its own block, so each producer
  // hands over several blocks that it numbered from 0.
  RecordStore first(1);
  RecordStore second(1);
  for (const uint64_t device : {10u, 11u, 12u}) {
    first.add_experiment(context_of(device));
    first.add_probe(probe_to(static_cast<uint8_t>(device)));
  }
  for (const uint64_t device : {20u, 21u}) {
    second.add_experiment(context_of(device));
    second.add_probe(probe_to(static_cast<uint8_t>(device)));
  }
  second.flush();
  ASSERT_EQ(second.blocks().size(), 2u);
  EXPECT_EQ(second.blocks()[1].first_experiment_id, 1u);
  RecordStore merged;
  merged.add_experiment(context_of(1));  // the merged store's own first
  first.hand_off(merged);
  second.hand_off(merged);
  EXPECT_EQ(first.experiment_count(), 0u);
  EXPECT_TRUE(second.blocks().empty());
  ASSERT_EQ(merged.experiment_count(), 6u);
  uint32_t next_id = 0;
  std::vector<uint64_t> devices;
  for (const auto experiment : merged.experiments()) {
    EXPECT_EQ(experiment.experiment_id, next_id++);
    devices.push_back(experiment.context().device_id);
  }
  EXPECT_EQ(devices, (std::vector<uint64_t>{1, 10, 11, 12, 20, 21}));
  uint32_t probe_id = 1;
  for (const auto probe : merged.probes()) {
    EXPECT_EQ(probe.experiment_id, probe_id++);
    // Still its producer's experiment: each probe targets its device.
    EXPECT_EQ(probe.target_ip.octet(3), probe.context().device_id);
  }
  EXPECT_EQ(probe_id, 6u);

  // 3. A row appended before any experiment aborts.
  RecordStore empty;
  EXPECT_DEATH(empty.add_probe(probe_to(1)), "before any experiment");
}

/// Keeps the blocks a draining store forwards, and logs each consume and
/// finish call in order.
class RecordingSink final : public RecordSink {
 public:
  void consume(RecordBlock&& block) override {
    calls.push_back("consume");
    blocks.push_back(std::move(block));
  }
  void finish() override { calls.push_back("finish"); }

  std::vector<RecordBlock> blocks;
  std::vector<std::string> calls;
};

// A draining store forwards each block once, when the next experiment
// seals it, numbered densely from 0; finish() forwards the open block and
// then finishes the sink, once.
TEST(RecordStore, DrainingForwardsEachSealedBlockOnceThenFinishesTheSink) {
  RecordingSink sink;
  RecordStore store(1);  // budget 1: every experiment seals the last one
  store.drain_to(&sink);
  for (const uint64_t device : {10u, 11u, 12u}) {
    store.add_experiment(context_of(device));
    store.add_probe(probe_to(static_cast<uint8_t>(device)));
  }
  EXPECT_EQ(sink.calls, (std::vector<std::string>{"consume", "consume"}));

  store.finish();
  EXPECT_EQ(sink.calls, (std::vector<std::string>{"consume", "consume",
                                                  "consume", "finish"}));
  ASSERT_EQ(sink.blocks.size(), 3u);
  for (size_t b = 0; b < sink.blocks.size(); ++b) {
    const RecordBlock& block = sink.blocks[b];
    EXPECT_EQ(block.first_experiment_id, b);
    ASSERT_EQ(block.experiments.size(), 1u);
    EXPECT_EQ(block.experiments[0].device_id, 10u + b);
    ASSERT_EQ(block.probes.size(), 1u);
    EXPECT_EQ(block.probe_row(0).target_ip.octet(3), 10u + b);
  }
  EXPECT_EQ(store.experiment_count(), 3u);
  EXPECT_EQ(store.probe_count(), 3u);
  EXPECT_TRUE(store.blocks().empty());
}

TEST(RecordStore, EmptyDrainingStoreForwardsNoBlock) {
  RecordingSink sink;
  RecordStore store;
  store.drain_to(&sink);
  store.finish();
  EXPECT_TRUE(sink.blocks.empty());
  EXPECT_EQ(sink.calls, (std::vector<std::string>{"finish"}));
}

TEST(RecordStore, DrainToAfterTheFirstAppendAborts) {
  RecordingSink sink;
  RecordStore store;
  store.add_experiment(context_of(1));
  EXPECT_DEATH(store.drain_to(&sink),
               "drain_to must be set before the first append");
}

TEST(RecordStore, DrainToAfterAFlushAborts) {
  // The first sink already holds the flushed block; a second drain_to
  // would split the stream across two sinks.
  RecordingSink first;
  RecordingSink second;
  RecordStore store;
  store.drain_to(&first);
  store.add_experiment(context_of(1));
  store.flush();
  ASSERT_TRUE(store.blocks().empty());
  EXPECT_DEATH(store.drain_to(&second),
               "drain_to must be set before the first append");
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
  for (const auto experiment : study_->records().experiments()) {
    const measure::ExperimentContext& context = experiment.context();
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
    const auto& context = observation.context();
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
    const auto& carrier_name = d.carrier_name(trace.context().carrier_index);
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
