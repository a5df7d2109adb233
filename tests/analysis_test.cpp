#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/census.h"
#include "analysis/figures.h"
#include "analysis/ldns.h"
#include "analysis/reach.h"
#include "analysis/replica.h"
#include "analysis/stats.h"
#include "core/study.h"

namespace curtain::analysis {
namespace {

using measure::RecordStore;
using measure::ResolverKind;

// --- Ecdf ------------------------------------------------------------------

TEST(Ecdf, EmptyIsSafe) {
  const Ecdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(10.0), 0.0);
  EXPECT_EQ(describe_cdf(cdf), "(no samples)");
}

TEST(Ecdf, QuantilesOfKnownData) {
  Ecdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_NEAR(cdf.median(), 50.5, 0.01);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
  EXPECT_NEAR(cdf.quantile(0.25), 25.75, 0.01);
}

TEST(Ecdf, FractionAtOrBelow) {
  Ecdf cdf;
  cdf.add_all({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(4.0), 1.0);
}

TEST(Ecdf, MeanMinMax) {
  Ecdf cdf;
  cdf.add_all({2, 4, 9});
  EXPECT_DOUBLE_EQ(cdf.mean(), 5.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 2.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 9.0);
}

TEST(Ecdf, CurveIsMonotonic) {
  Ecdf cdf;
  net::Rng rng(3);
  for (int i = 0; i < 1000; ++i) cdf.add(rng.uniform(0, 100));
  const auto curve = cdf.curve(31);
  ASSERT_EQ(curve.size(), 31u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GT(curve[i].first, curve[i - 1].first);
  }
}

// Property: quantile is monotone in p for arbitrary data.
class EcdfMonotone : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EcdfMonotone, QuantileMonotoneInP) {
  net::Rng rng(GetParam());
  Ecdf cdf;
  for (int i = 0; i < 500; ++i) cdf.add(rng.lognormal_median(50, 0.8));
  double prev = -1.0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double q = cdf.quantile(p);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfMonotone, ::testing::Values(1, 2, 3, 4));

TEST(Bootstrap, IntervalBracketsPointEstimate) {
  Ecdf cdf;
  net::Rng rng(21);
  for (int i = 0; i < 400; ++i) cdf.add(rng.uniform(-1.0, 1.0));
  const auto ci = bootstrap_fraction_at_or_below(cdf, 0.0, 500, 3);
  EXPECT_LE(ci.low, ci.point);
  EXPECT_GE(ci.high, ci.point);
  EXPECT_NEAR(ci.point, 0.5, 0.08);
  EXPECT_GT(ci.high - ci.low, 0.0);
  EXPECT_LT(ci.high - ci.low, 0.2);
}

TEST(Bootstrap, MoreDataTighterInterval) {
  net::Rng rng(22);
  Ecdf small;
  Ecdf large;
  for (int i = 0; i < 50; ++i) small.add(rng.uniform(-1.0, 1.0));
  for (int i = 0; i < 5000; ++i) large.add(rng.uniform(-1.0, 1.0));
  const auto narrow = bootstrap_fraction_at_or_below(large, 0.0, 400, 5);
  const auto wide = bootstrap_fraction_at_or_below(small, 0.0, 400, 5);
  EXPECT_LT(narrow.high - narrow.low, wide.high - wide.low);
}

TEST(Bootstrap, DegenerateSamples) {
  Ecdf cdf;
  cdf.add(1.0);
  const auto ci = bootstrap_fraction_at_or_below(cdf, 0.0, 100, 9);
  EXPECT_DOUBLE_EQ(ci.low, ci.point);
  EXPECT_DOUBLE_EQ(ci.high, ci.point);
}

TEST(Bootstrap, Deterministic) {
  Ecdf cdf;
  net::Rng rng(23);
  for (int i = 0; i < 200; ++i) cdf.add(rng.uniform(0.0, 2.0));
  const auto a = bootstrap_fraction_at_or_below(cdf, 1.0, 300, 42);
  const auto b = bootstrap_fraction_at_or_below(cdf, 1.0, 300, 42);
  EXPECT_DOUBLE_EQ(a.low, b.low);
  EXPECT_DOUBLE_EQ(a.high, b.high);
}

TEST(Bootstrap, NoResamplesGiveThePointInterval) {
  Ecdf cdf;
  for (const double v : {-1.0, 0.0, 0.5, 2.0}) cdf.add(v);
  for (const int resamples : {0, -1, -500}) {
    const auto ci = bootstrap_fraction_at_or_below(cdf, 0.0, resamples, 7);
    EXPECT_DOUBLE_EQ(ci.point, 0.5);
    EXPECT_DOUBLE_EQ(ci.low, ci.point);
    EXPECT_DOUBLE_EQ(ci.high, ci.point);
  }
}

// The bootstrap as it was before it drew binomial counts: each resample
// draws n indices uniformly from [0, n) and counts those below the rank of
// x among the sorted samples.
ConfidenceInterval index_resampling_bootstrap(const Ecdf& cdf, double x,
                                              int resamples, uint64_t seed,
                                              double confidence) {
  ConfidenceInterval interval;
  interval.point = cdf.fraction_at_or_below(x);
  const auto& samples = cdf.sorted_values();
  const uint64_t n = samples.size();
  const auto rank = static_cast<uint64_t>(
      std::upper_bound(samples.begin(), samples.end(), x) - samples.begin());
  const net::UniformBelow draw_index(n);
  net::Rng rng(seed);
  std::vector<double> fractions;
  for (int r = 0; r < resamples; ++r) {
    uint64_t at_or_below = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if (draw_index(rng) < rank) ++at_or_below;
    }
    fractions.push_back(static_cast<double>(at_or_below) /
                        static_cast<double>(n));
  }
  std::sort(fractions.begin(), fractions.end());
  const double alpha = (1.0 - confidence) / 2.0;
  const auto index = [&](double q) {
    return fractions[std::min(
        fractions.size() - 1,
        static_cast<size_t>(q * static_cast<double>(fractions.size())))];
  };
  interval.low = index(alpha);
  interval.high = index(1.0 - alpha);
  return interval;
}

// Drawing each resample's count as one binomial changes the draws, not the
// distribution: at the headline's size (n = 40 000, 500 resamples) both
// endpoints agree with index resampling within 0.3 percentage points. A
// 95 % endpoint from 500 resamples has a Monte Carlo sd of about 0.03 pp
// here, and the interval's half-width is about 0.4 pp, so 0.3 pp allows
// noise and still fails a sampler with the wrong spread.
TEST(Bootstrap, BinomialCountsMatchIndexResampling) {
  constexpr size_t kSamples = 40000;
  constexpr double kTolerance = 0.003;
  for (const double share_at_or_below : {0.5, 0.816, 0.97}) {
    net::Rng values(kSamples);
    Ecdf cdf;
    for (size_t i = 0; i < kSamples; ++i) {
      cdf.add(values.bernoulli(share_at_or_below) ? -1.0 : 1.0);
    }
    for (const uint64_t seed : {uint64_t{7}, uint64_t{20141105}}) {
      const auto binomial =
          bootstrap_fraction_at_or_below(cdf, 0.0, 500, seed, 0.95);
      const auto resampled =
          index_resampling_bootstrap(cdf, 0.0, 500, seed, 0.95);
      EXPECT_EQ(binomial.point, resampled.point);
      EXPECT_NEAR(binomial.low, resampled.low, kTolerance)
          << "share=" << share_at_or_below << " seed=" << seed;
      EXPECT_NEAR(binomial.high, resampled.high, kTolerance)
          << "share=" << share_at_or_below << " seed=" << seed;
      EXPECT_LT(binomial.low, binomial.point);
      EXPECT_GT(binomial.high, binomial.point);
    }
  }
}

// --- ReplicaMap / cosine ----------------------------------------------------

TEST(ReplicaMap, IdenticalMapsAreSimilarityOne) {
  ReplicaMap a;
  a.observe(net::Ipv4Addr{1, 1, 1, 1});
  a.observe(net::Ipv4Addr{1, 1, 1, 2});
  EXPECT_NEAR(a.cosine_similarity(a), 1.0, 1e-12);
}

TEST(ReplicaMap, DisjointMapsAreZero) {
  ReplicaMap a;
  ReplicaMap b;
  a.observe(net::Ipv4Addr{1, 1, 1, 1});
  b.observe(net::Ipv4Addr{2, 2, 2, 2});
  EXPECT_DOUBLE_EQ(a.cosine_similarity(b), 0.0);
}

TEST(ReplicaMap, SymmetricAndBounded) {
  net::Rng rng(9);
  ReplicaMap a;
  ReplicaMap b;
  for (int i = 0; i < 200; ++i) {
    a.observe(net::Ipv4Addr(static_cast<uint32_t>(rng.uniform_u64(1, 10))));
    b.observe(net::Ipv4Addr(static_cast<uint32_t>(rng.uniform_u64(5, 15))));
  }
  const double ab = a.cosine_similarity(b);
  EXPECT_DOUBLE_EQ(ab, b.cosine_similarity(a));
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
  EXPECT_GT(ab, 0.0);  // they do overlap on 5..10
}

TEST(ReplicaMap, RatiosNormalize) {
  ReplicaMap map;
  map.observe(net::Ipv4Addr{1, 0, 0, 1});
  map.observe(net::Ipv4Addr{1, 0, 0, 1});
  map.observe(net::Ipv4Addr{1, 0, 0, 2});
  EXPECT_NEAR(map.ratio(net::Ipv4Addr{1, 0, 0, 1}), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(map.ratio(net::Ipv4Addr{9, 9, 9, 9}), 0.0);
  EXPECT_EQ(map.distinct(), 2u);
  EXPECT_EQ(map.total(), 3u);
}

TEST(ReplicaMap, EmptyMapSimilarityZero) {
  ReplicaMap a;
  ReplicaMap b;
  a.observe(net::Ipv4Addr{1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(a.cosine_similarity(b), 0.0);
}

// --- synthetic-dataset analyses ---------------------------------------------

// Builds a hand-crafted dataset for exact-value assertions. Each row
// belongs to the experiment added last before it.
class SyntheticDataset : public ::testing::Test {
 protected:
  void add_experiment(int carrier, uint64_t device, double hour,
                      net::Ipv4Addr configured,
                      net::GeoPoint location = {40.0, -74.0}) {
    measure::ExperimentContext context;
    context.device_id = device;
    context.carrier_index = carrier;
    context.started = net::SimTime::from_hours(hour);
    context.location = location;
    context.configured_resolver = configured;
    context.public_ip = net::Ipv4Addr{100, 0, 0, 1};
    d_.add_experiment(context);
  }

  void add_observation(ResolverKind kind, net::Ipv4Addr external) {
    measure::ResolverObservation observation;
    observation.resolver = kind;
    observation.responded = true;
    observation.external_ip = external;
    d_.add_observation(observation);
  }

  void add_http(ResolverKind kind, uint16_t domain, net::Ipv4Addr replica,
                double ttfb) {
    measure::ProbeMeasurement probe;
    probe.target_kind = measure::ProbeTargetKind::kReplica;
    probe.resolver = kind;
    probe.domain_index = domain;
    probe.target_ip = replica;
    probe.is_http = true;
    probe.responded = true;
    probe.rtt_ms = ttfb;
    d_.add_probe(probe);
  }

  void add_resolution(ResolverKind kind, uint16_t domain,
                      std::vector<net::Ipv4Addr> addresses) {
    measure::DnsMeasurement r;
    r.resolver = kind;
    r.domain_index = domain;
    r.responded = true;
    r.resolution_ms = 40.0;
    for (const net::Ipv4Addr address : addresses) {
      r.addresses.push_back(address);
    }
    d_.add_resolution(std::move(r));
  }

  RecordStore d_;
};

TEST_F(SyntheticDataset, LdnsPairStatsConsistency) {
  const net::Ipv4Addr client{10, 0, 0, 1};
  const net::Ipv4Addr ext_a{20, 0, 0, 1};
  const net::Ipv4Addr ext_b{20, 0, 1, 1};
  // Carrier 0: 3 of 4 measurements pair client with ext_a => 75%.
  for (int i = 0; i < 3; ++i) {
    add_experiment(0, 1, i, client);
    add_observation(ResolverKind::kLocal, ext_a);
  }
  add_experiment(0, 1, 9, client);
  add_observation(ResolverKind::kLocal, ext_b);
  // Carrier 2: one of two measurements sees the configured resolver
  // itself (direct resolution) => half indirect.
  add_experiment(2, 3, 1, client);
  add_observation(ResolverKind::kLocal, client);
  add_experiment(2, 3, 2, client);
  add_observation(ResolverKind::kLocal, ext_a);

  const auto stats = ldns_pair_stats(d_);
  ASSERT_EQ(stats.size(), 6u);
  EXPECT_EQ(stats[0].client_resolvers, 1u);
  EXPECT_EQ(stats[0].external_resolvers, 2u);
  EXPECT_EQ(stats[0].pairs, 2u);
  EXPECT_NEAR(stats[0].consistency_percent, 75.0, 1e-9);
  EXPECT_NEAR(stats[0].indirect_share, 1.0, 1e-12);
  EXPECT_EQ(stats[1].pairs, 0u);  // untouched carrier
  EXPECT_EQ(stats[1].indirect_share, 0.0);
  EXPECT_NEAR(stats[2].indirect_share, 0.5, 1e-12);
}

TEST_F(SyntheticDataset, TimelineRanksFirstAppearance) {
  const net::Ipv4Addr client{10, 0, 0, 1};
  const net::Ipv4Addr a{20, 0, 0, 1};
  const net::Ipv4Addr b{20, 0, 1, 1};  // different /24
  const net::Ipv4Addr c{20, 0, 0, 2};  // same /24 as a
  add_experiment(0, 5, 1, client);
  add_observation(ResolverKind::kLocal, a);
  add_experiment(0, 5, 2, client);
  add_observation(ResolverKind::kLocal, b);
  add_experiment(0, 5, 3, client);
  add_observation(ResolverKind::kLocal, a);
  add_experiment(0, 5, 4, client);
  add_observation(ResolverKind::kLocal, c);

  const auto timelines = resolver_timelines(d_, 0, ResolverKind::kLocal);
  ASSERT_EQ(timelines.size(), 1u);
  const auto& timeline = timelines[0];
  EXPECT_EQ(timeline.ip_rank, (std::vector<int>{1, 2, 1, 3}));
  EXPECT_EQ(timeline.slash24_rank, (std::vector<int>{1, 2, 1, 1}));
  EXPECT_EQ(timeline.unique_ips(), 3u);
  EXPECT_EQ(timeline.unique_slash24s(), 2u);
}

TEST_F(SyntheticDataset, StaticFilterDropsTravelObservations) {
  const net::Ipv4Addr client{10, 0, 0, 1};
  const net::GeoPoint home{40.0, -74.0};
  const net::GeoPoint away{34.0, -118.0};
  for (int i = 0; i < 8; ++i) {
    add_experiment(0, 6, i, client, home);
    add_observation(ResolverKind::kLocal, net::Ipv4Addr{20, 0, 0, 1});
  }
  add_experiment(0, 6, 20, client, away);
  add_observation(ResolverKind::kLocal, net::Ipv4Addr{20, 0, 9, 1});

  const auto timelines =
      static_resolver_timelines(d_, 0, ResolverKind::kLocal, 10.0);
  ASSERT_EQ(timelines.size(), 1u);
  EXPECT_EQ(timelines[0].times.size(), 8u);  // the away point is dropped
  EXPECT_EQ(timelines[0].unique_ips(), 1u);
}

TEST_F(SyntheticDataset, JoinedTimelinesMatchPerCallJoins) {
  // Two devices of carrier 0 (one travelling, ties in start time), one of
  // carrier 1, and Google observations that the kLocal join must skip.
  const net::Ipv4Addr client{10, 0, 0, 1};
  for (int i = 0; i < 12; ++i) {
    const net::GeoPoint where =
        i % 5 == 4 ? net::GeoPoint{34.0, -118.0} : net::GeoPoint{40.0, -74.0};
    add_experiment(0, 1 + static_cast<uint64_t>(i % 2), i / 2, client, where);
    add_observation(ResolverKind::kLocal,
                    net::Ipv4Addr{20, 0, static_cast<uint8_t>(i % 3), 1});
    add_observation(ResolverKind::kGoogle, net::Ipv4Addr{8, 8, 8, 8});
    add_experiment(1, 9, i, client);
    add_observation(ResolverKind::kLocal, net::Ipv4Addr{30, 0, 0, 1});
  }
  const auto same = [](const std::vector<ResolverTimeline>& a,
                       const std::vector<ResolverTimeline>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].device_id, b[i].device_id);
      EXPECT_EQ(a[i].carrier_index, b[i].carrier_index);
      EXPECT_EQ(a[i].times, b[i].times);
      EXPECT_EQ(a[i].ip_rank, b[i].ip_rank);
      EXPECT_EQ(a[i].slash24_rank, b[i].slash24_rank);
    }
  };
  for (int carrier = 0; carrier < 2; ++carrier) {
    const auto joined =
        joined_observations(d_, carrier, ResolverKind::kLocal);
    EXPECT_EQ(joined.size(), 12u);
    same(resolver_timelines(joined, carrier),
         resolver_timelines(d_, carrier, ResolverKind::kLocal));
    same(static_resolver_timelines(joined, carrier),
         static_resolver_timelines(d_, carrier, ResolverKind::kLocal));
  }
  // Device 1 ran at i = 0, 2, ..., 10 and was away only at i = 4; device 2
  // was away at i = 9.
  const auto at_home = static_resolver_timelines(
      joined_observations(d_, 0, ResolverKind::kLocal), 0);
  ASSERT_EQ(at_home.size(), 2u);
  EXPECT_EQ(at_home[0].times.size(), 5u);
  EXPECT_EQ(at_home[1].times.size(), 5u);
}

TEST_F(SyntheticDataset, ReplicaPenaltyComputesPercentIncrease) {
  add_experiment(0, 7, 1, net::Ipv4Addr{10, 0, 0, 1});
  // Replica A mean 100, replica B mean 150 => penalties {0%, 50%}.
  add_http(ResolverKind::kLocal, 2, net::Ipv4Addr{30, 0, 0, 1}, 90);
  add_http(ResolverKind::kLocal, 2, net::Ipv4Addr{30, 0, 0, 1}, 110);
  add_http(ResolverKind::kLocal, 2, net::Ipv4Addr{30, 0, 1, 1}, 150);
  const auto penalties = replica_penalty_by_carrier(d_, {2});
  ASSERT_TRUE(penalties.count(0));
  const auto& cdf = penalties.at(0);
  ASSERT_EQ(cdf.size(), 2u);
  EXPECT_NEAR(cdf.min(), 0.0, 1e-9);
  EXPECT_NEAR(cdf.max(), 50.0, 1e-9);
}

TEST_F(SyntheticDataset, CosineByPrefixSplitsCorrectly) {
  const net::Ipv4Addr client{10, 0, 0, 1};
  const net::Ipv4Addr resolver_a1{20, 0, 0, 1};
  const net::Ipv4Addr resolver_a2{20, 0, 0, 2};  // same /24 as a1
  const net::Ipv4Addr resolver_b{20, 0, 7, 1};   // different /24
  const std::vector<net::Ipv4Addr> replicas_x{{30, 0, 0, 1}, {30, 0, 0, 2}};
  const std::vector<net::Ipv4Addr> replicas_y{{31, 0, 0, 1}};

  // a1 and a2 see replica set X; b sees Y.
  for (int i = 0; i < 3; ++i) {
    add_experiment(0, 8, i, client);
    add_observation(ResolverKind::kLocal, resolver_a1);
    add_resolution(ResolverKind::kLocal, 5, replicas_x);
    add_experiment(0, 8, i + 10, client);
    add_observation(ResolverKind::kLocal, resolver_a2);
    add_resolution(ResolverKind::kLocal, 5, replicas_x);
    add_experiment(0, 8, i + 20, client);
    add_observation(ResolverKind::kLocal, resolver_b);
    add_resolution(ResolverKind::kLocal, 5, replicas_y);
  }

  const auto split = cosine_by_prefix(d_, 5, 0);
  ASSERT_EQ(split.same_slash24.size(), 1u);   // (a1,a2)
  ASSERT_EQ(split.different_slash24.size(), 2u);  // (a1,b), (a2,b)
  EXPECT_NEAR(split.same_slash24.max(), 1.0, 1e-9);
  EXPECT_NEAR(split.different_slash24.max(), 0.0, 1e-9);
}

TEST_F(SyntheticDataset, CensusCountsIpsAndPrefixes) {
  add_experiment(2, 9, 1, net::Ipv4Addr{10, 0, 0, 1});
  add_observation(ResolverKind::kGoogle, net::Ipv4Addr{8, 8, 4, 1});
  add_observation(ResolverKind::kGoogle, net::Ipv4Addr{8, 8, 4, 2});
  add_observation(ResolverKind::kLocal, net::Ipv4Addr{20, 0, 0, 1});
  const auto census = resolver_census(d_);
  const auto& row = census[2];
  EXPECT_EQ(row.unique_ips[static_cast<size_t>(ResolverKind::kGoogle)], 2u);
  EXPECT_EQ(row.unique_slash24s[static_cast<size_t>(ResolverKind::kGoogle)], 1u);
  EXPECT_EQ(row.unique_ips[static_cast<size_t>(ResolverKind::kLocal)], 1u);
}

TEST_F(SyntheticDataset, EgressExtractionFindsLastCarrierHop) {
  add_experiment(3, 10, 1, net::Ipv4Addr{10, 0, 0, 1});
  measure::TracerouteMeasurement trace;
  trace.hop_names = {"Verizon-pgw-7", "ix-Chicago", "fastedge-Chicago-r0"};
  trace.reached = true;
  d_.add_traceroute(std::move(trace));

  measure::TracerouteMeasurement trace2;
  trace2.hop_names = {"Verizon-pgw-9", "*", "ix-Dallas"};
  trace2.reached = false;
  d_.add_traceroute(std::move(trace2));

  const auto stats = egress_points(d_);
  EXPECT_EQ(stats[3].egress_points, 2u);
  EXPECT_TRUE(stats[3].egress_names.count("Verizon-pgw-7"));
  EXPECT_EQ(stats[0].egress_points, 0u);
}

TEST_F(SyntheticDataset, ReachabilityTable) {
  measure::VantageProbe probe;
  probe.carrier_index = 1;
  probe.ping_responded = true;
  probe.traceroute_reached = false;
  d_.add_vantage(probe);
  probe.ping_responded = false;
  d_.add_vantage(probe);
  const auto table = external_reachability(d_);
  EXPECT_EQ(table[1].total, 2u);
  EXPECT_EQ(table[1].ping_responded, 1u);
  EXPECT_EQ(table[1].traceroute_reached, 0u);
}

TEST_F(SyntheticDataset, Fig14AggregationByPrefix) {
  add_experiment(0, 11, 1, net::Ipv4Addr{10, 0, 0, 1});
  // Same /24 replica sets: delta must be exactly zero.
  add_http(ResolverKind::kLocal, 0, net::Ipv4Addr{30, 1, 1, 1}, 100);
  add_http(ResolverKind::kGoogle, 0, net::Ipv4Addr{30, 1, 1, 2}, 170);
  // Different /24s for domain 1: delta = (120-100)/100 = +20%.
  add_http(ResolverKind::kLocal, 1, net::Ipv4Addr{30, 2, 2, 1}, 100);
  add_http(ResolverKind::kGoogle, 1, net::Ipv4Addr{30, 3, 3, 1}, 120);

  const auto groups = fig14_public_replica_delta(d_);
  const auto& google = groups.at(d_.carrier_name(0)).at("GoogleDNS");
  ASSERT_EQ(google.size(), 2u);
  EXPECT_NEAR(google.min(), 0.0, 1e-9);
  EXPECT_NEAR(google.max(), 20.0, 1e-9);
}

TEST_F(SyntheticDataset, HeadlineCountsEqualOrBetter) {
  add_experiment(0, 12, 1, net::Ipv4Addr{10, 0, 0, 1});
  add_http(ResolverKind::kLocal, 0, net::Ipv4Addr{30, 1, 1, 1}, 100);
  add_http(ResolverKind::kGoogle, 0, net::Ipv4Addr{30, 9, 1, 2}, 80);
  add_http(ResolverKind::kOpenDns, 0, net::Ipv4Addr{30, 8, 1, 2}, 180);
  EXPECT_NEAR(headline_public_equal_or_better(d_), 0.5, 1e-9);
}

// --- Fig. 14 grouping ---------------------------------------------------------

// Fig. 14 as it was grouped before the per-experiment pass: every replica
// HTTP sample in one map keyed by (experiment, domain, kind), each holding
// a std::set of its /24s, then one pass over the map's local entries.
std::vector<ReplicaDelta> reference_fig14(const RecordStore& d) {
  struct Sample {
    int carrier_index = 0;
    double latency_sum = 0.0;
    int count = 0;
    std::set<uint32_t> slash24s;
    double mean() const { return count == 0 ? 0.0 : latency_sum / count; }
  };
  std::map<std::tuple<uint32_t, uint16_t, int>, Sample> samples;
  for (const auto& probe : d.probes()) {
    if (probe.target_kind != measure::ProbeTargetKind::kReplica ||
        !probe.is_http || !probe.responded) {
      continue;
    }
    Sample& sample = samples[{probe.experiment_id, probe.domain_index,
                              static_cast<int>(probe.resolver)}];
    sample.carrier_index = probe.context().carrier_index;
    sample.latency_sum += probe.rtt_ms;
    ++sample.count;
    sample.slash24s.insert(probe.target_ip.slash24().value());
  }
  std::vector<ReplicaDelta> out;
  for (const auto& [key, local] : samples) {
    const auto [experiment, domain, kind] = key;
    if (kind != static_cast<int>(ResolverKind::kLocal) || local.count == 0) {
      continue;
    }
    for (const ResolverKind service :
         {ResolverKind::kGoogle, ResolverKind::kOpenDns}) {
      const auto it =
          samples.find({experiment, domain, static_cast<int>(service)});
      if (it == samples.end() || it->second.count == 0) continue;
      const Sample& pub = it->second;
      const bool same_cluster = std::any_of(
          pub.slash24s.begin(), pub.slash24s.end(), [&](uint32_t p) {
            return local.slash24s.count(p) != 0;
          });
      out.push_back({local.carrier_index, service,
                     same_cluster ? 0.0
                                  : (pub.mean() - local.mean()) /
                                        local.mean() * 100.0});
    }
  }
  return out;
}

void expect_fig14_matches_reference(const RecordStore& d) {
  const auto expected = reference_fig14(d);
  const auto actual = fig14_replica_deltas(d);
  // Value for value and in order: == on doubles, no tolerance.
  ASSERT_EQ(actual.size(), expected.size());
  std::map<std::string, std::map<std::string, std::vector<double>>> by_group;
  size_t equal_or_better = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].carrier_index, expected[i].carrier_index) << i;
    ASSERT_EQ(actual[i].service, expected[i].service) << i;
    ASSERT_EQ(actual[i].percent, expected[i].percent) << i;
    by_group[d.carrier_name(expected[i].carrier_index)]
            [measure::resolver_kind_name(expected[i].service)]
                .push_back(expected[i].percent);
    if (expected[i].percent <= 0.0) ++equal_or_better;
  }

  // The CDFs hold the same samples, and the headline counts them.
  const auto groups = fig14_public_replica_delta(d);
  ASSERT_EQ(groups.size(), by_group.size());
  for (const auto& [carrier, by_kind] : by_group) {
    ASSERT_EQ(groups.at(carrier).size(), by_kind.size());
    for (const auto& [kind, values] : by_kind) {
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(groups.at(carrier).at(kind).sorted_values(), sorted);
    }
  }
  EXPECT_EQ(headline_public_equal_or_better(d),
            expected.empty() ? 0.0
                             : static_cast<double>(equal_or_better) /
                                   static_cast<double>(expected.size()));
}

void add_fig14_experiment(RecordStore& d, int carrier) {
  measure::ExperimentContext context;
  context.carrier_index = carrier;
  d.add_experiment(context);
}

void add_fig14_probe(RecordStore& d, ResolverKind kind, uint16_t domain,
                     net::Ipv4Addr replica, double ttfb,
                     measure::ProbeTargetKind target =
                         measure::ProbeTargetKind::kReplica,
                     bool is_http = true, bool responded = true) {
  measure::ProbeMeasurement probe;
  probe.target_kind = target;
  probe.resolver = kind;
  probe.domain_index = domain;
  probe.target_ip = replica;
  probe.is_http = is_http;
  probe.responded = responded;
  probe.rtt_ms = ttfb;
  d.add_probe(probe);
}

TEST(Fig14, PerExperimentGroupingMatchesMapGrouping) {
  {
    // The golden study.
    core::Study study(
        core::Scenario::paper_2014().with_seed(20141105).with_scale(0.02));
    study.run();
    ASSERT_GT(fig14_replica_deltas(study.records()).size(), 10000u);
    expect_fig14_matches_reference(study.records());
  }
  {
    // Hand-built cases, one experiment each.
    RecordStore d(4);  // small blocks: experiments span several
    const net::Ipv4Addr a1{30, 1, 1, 1};
    const net::Ipv4Addr a2{30, 1, 1, 2};  // a1's /24
    const net::Ipv4Addr b1{30, 2, 2, 1};
    const net::Ipv4Addr c1{30, 3, 3, 1};
    // A /24 shared between the local and the public answers.
    add_fig14_experiment(d, 0);
    add_fig14_probe(d, ResolverKind::kLocal, 3, a1, 100);
    add_fig14_probe(d, ResolverKind::kLocal, 3, b1, 140);
    add_fig14_probe(d, ResolverKind::kGoogle, 3, c1, 90);
    add_fig14_probe(d, ResolverKind::kGoogle, 3, a2, 95);
    add_fig14_probe(d, ResolverKind::kOpenDns, 3, c1, 300);
    // Only a local sample.
    add_fig14_experiment(d, 1);
    add_fig14_probe(d, ResolverKind::kLocal, 3, a1, 100);
    // No replica samples at all, then several domains, out of order, with
    // rows the figure skips between them.
    add_fig14_experiment(d, 2);
    add_fig14_probe(d, ResolverKind::kLocal, 1, a1, 50,
                    measure::ProbeTargetKind::kExternalResolver, false);
    add_fig14_experiment(d, 2);
    add_fig14_probe(d, ResolverKind::kLocal, 7, b1, 80);
    add_fig14_probe(d, ResolverKind::kGoogle, 7, c1, 120);
    add_fig14_probe(d, ResolverKind::kLocal, 2, a1, 60);
    add_fig14_probe(d, ResolverKind::kLocal, 2, c1, 70, measure::ProbeTargetKind::kReplica,
                    /*is_http=*/false);
    add_fig14_probe(d, ResolverKind::kOpenDns, 2, b1, 0, measure::ProbeTargetKind::kReplica,
                    true, /*responded=*/false);
    add_fig14_probe(d, ResolverKind::kOpenDns, 2, c1, 45);
    add_fig14_probe(d, ResolverKind::kGoogle, 2, b1, 66);
    add_fig14_probe(d, ResolverKind::kLocal, 5, c1, 30);
    add_fig14_probe(d, ResolverKind::kOpenDns, 5, a1, 31);
    // Repeated /24s within one sample; Google's sample is missing.
    add_fig14_experiment(d, 0);
    add_fig14_probe(d, ResolverKind::kLocal, 4, a1, 100);
    add_fig14_probe(d, ResolverKind::kLocal, 4, a2, 110);
    add_fig14_probe(d, ResolverKind::kLocal, 4, a1, 120);
    add_fig14_probe(d, ResolverKind::kOpenDns, 4, b1, 150);
    add_fig14_probe(d, ResolverKind::kOpenDns, 4, b1, 160);
    // A public sample with no local one.
    add_fig14_experiment(d, 3);
    add_fig14_probe(d, ResolverKind::kGoogle, 6, a1, 10);
    expect_fig14_matches_reference(d);
    EXPECT_EQ(fig14_replica_deltas(d).size(), 7u);
  }
  // Random stores: few /24s, so samples repeat and share them often.
  for (const uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    net::Rng rng(seed);
    RecordStore d(static_cast<size_t>(rng.uniform_u64(1, 64)));
    for (int e = 0; e < 300; ++e) {
      add_fig14_experiment(d, static_cast<int>(rng.uniform_u64(0, 5)));
      const auto probes = rng.uniform_u64(0, 24);
      for (uint64_t i = 0; i < probes; ++i) {
        add_fig14_probe(
            d, static_cast<ResolverKind>(rng.uniform_u64(0, 2)),
            static_cast<uint16_t>(rng.uniform_u64(0, 4)),
            net::Ipv4Addr{30, 0, static_cast<uint8_t>(rng.uniform_u64(0, 5)),
                          static_cast<uint8_t>(rng.uniform_u64(1, 3))},
            rng.uniform(5.0, 400.0),
            rng.bernoulli(0.9) ? measure::ProbeTargetKind::kReplica
                               : measure::ProbeTargetKind::kPublicVip,
            rng.bernoulli(0.9), rng.bernoulli(0.95));
      }
    }
    expect_fig14_matches_reference(d);
  }
}

}  // namespace
}  // namespace curtain::analysis
