// Microbenchmarks for the network substrate: RNG, latency sampling,
// routing and probe primitives.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "net/geo.h"
#include "net/rng.h"
#include "net/topology.h"

namespace {

using namespace curtain;

void BM_RngNextU64(benchmark::State& state) {
  auto rng = bench::bench_rng("micro_net/next-u64");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngLognormal(benchmark::State& state) {
  auto rng = bench::bench_rng("micro_net/lognormal");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_median(30.0, 0.3));
  }
}
BENCHMARK(BM_RngLognormal);

void BM_RngNormal(benchmark::State& state) {
  auto rng = bench::bench_rng("micro_net/normal");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
}
BENCHMARK(BM_RngNormal);

void BM_Haversine(benchmark::State& state) {
  const net::GeoPoint a{40.71, -74.01};
  const net::GeoPoint b{34.05, -118.24};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::distance_km(a, b));
  }
}
BENCHMARK(BM_Haversine);

/// A mid-sized world, frozen: full-mesh backbone of 30 metros plus 200
/// leaves, the first leaf being node 30.
constexpr uint32_t kFirstLeaf = 30;
net::Topology make_topology() {
  net::Topology topo;
  std::vector<net::NodeId> backbone;
  for (const auto& metro : net::world_metros()) {
    net::Node node;
    node.name = "ix-" + metro.name;
    node.location = metro.location;
    backbone.push_back(topo.add_node(node));
  }
  for (size_t i = 0; i < backbone.size(); ++i) {
    for (size_t j = i + 1; j < backbone.size(); ++j) {
      topo.add_link(backbone[i], backbone[j],
                    net::LatencyModel::wan(
                        net::propagation_ms(topo.node(backbone[i]).location,
                                            topo.node(backbone[j]).location),
                        1.0));
    }
  }
  auto rng = bench::bench_rng("micro_net/topology-build");
  for (int leaf = 0; leaf < 200; ++leaf) {
    net::Node node;
    node.name = "leaf-" + std::to_string(leaf);
    node.ip = net::Ipv4Addr(0x0a000000u + static_cast<uint32_t>(leaf) + 1);
    const net::NodeId id = topo.add_node(node);
    topo.add_link(id, backbone[static_cast<size_t>(leaf) % backbone.size()],
                  net::LatencyModel::jittered(1.0, 0.3));
    (void)rng;
  }
  topo.freeze();
  return topo;
}

/// One route lookup and walk with its source's shortest-path tree already
/// built: the pairs rotate through 200 leaf sources, so every tree is
/// built in the first lap and reused after. The cost of building trees is
/// BM_TransportRttManyTargets's.
void BM_RouteWarmCache(benchmark::State& state) {
  net::Topology topo = make_topology();
  uint32_t from = kFirstLeaf;
  uint32_t to = kFirstLeaf + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.route(from, to));
    from = kFirstLeaf + (from + 7) % 200;
    to = kFirstLeaf + (to + 13) % 200;
  }
}
BENCHMARK(BM_RouteWarmCache);

void BM_TransportRtt(benchmark::State& state) {
  net::Topology topo = make_topology();
  auto rng = bench::bench_rng("micro_net/transport-rtt");
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.transport_rtt_ms(30, 150, rng));
  }
}
BENCHMARK(BM_TransportRtt);

/// One source, every other node as a target, from a source whose
/// shortest-path tree is not built yet: the shape of a campaign, where few
/// sources (gateways, resolvers, the vantage point) reach many targets.
/// Each sweep routes from the next leaf of the topology; once every leaf
/// has swept, a fresh frozen topology is built outside the timed region.
/// So each sweep pays for whatever routing state one source needs: one
/// shortest-path tree, or one search per target with a per-pair cache.
/// One op is one sweep.
void BM_TransportRttManyTargets(benchmark::State& state) {
  net::Topology topo = make_topology();
  auto rng = bench::bench_rng("micro_net/transport-rtt-many-targets");
  const auto nodes = static_cast<uint32_t>(topo.node_count());
  uint32_t from = kFirstLeaf;
  for (auto _ : state) {
    if (from == nodes) {
      state.PauseTiming();
      topo = make_topology();
      from = kFirstLeaf;
      state.ResumeTiming();
    }
    for (uint32_t to = 0; to < nodes; ++to) {
      if (to == from) continue;
      benchmark::DoNotOptimize(topo.transport_rtt_ms(from, to, rng));
    }
    ++from;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nodes - 1));
}
BENCHMARK(BM_TransportRttManyTargets);

void BM_Ping(benchmark::State& state) {
  net::Topology topo = make_topology();
  auto rng = bench::bench_rng("micro_net/ping");
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.ping(30, 150, rng));
  }
}
BENCHMARK(BM_Ping);

void BM_Traceroute(benchmark::State& state) {
  net::Topology topo = make_topology();
  auto rng = bench::bench_rng("micro_net/traceroute");
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.traceroute(30, 150, rng));
  }
}
BENCHMARK(BM_Traceroute);

}  // namespace

int main(int argc, char** argv) {
  return curtain::bench::run_micro_benchmarks("micro_net", argc, argv);
}
