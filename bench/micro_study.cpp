// Microbenchmarks at the campaign level: world construction and full
// experiment throughput — what bounds a CURTAIN_SCALE=1 run.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "cellular/device.h"
#include "core/world.h"
#include "dns/stub.h"
#include "measure/experiment.h"

namespace {

using namespace curtain;

void BM_WorldConstruction(benchmark::State& state) {
  for (auto _ : state) {
    core::World world;
    benchmark::DoNotOptimize(world.topology().node_count());
  }
}
BENCHMARK(BM_WorldConstruction)->Unit(benchmark::kMillisecond);

void BM_FullExperiment(benchmark::State& state) {
  core::World world;
  measure::ExperimentRunner runner(
      measure::WorldView{world.topology(), world.registry()},
      measure::ResolverIdentifier(world.research_apex()));
  cellular::Fleet fleet(&world.carrier(0), 1);
  fleet.enroll(0, 1, net::GeoPoint{40.71, -74.01});
  cellular::Device device = fleet.device(0);
  measure::RecordStore records;
  auto rng = bench::bench_rng("micro_study/full-experiment");
  int64_t hour = 0;
  for (auto _ : state) {
    runner.run(device, 0, net::SimTime::from_hours(static_cast<double>(++hour)), rng, records);
  }
  state.SetLabel(std::to_string(records.resolution_count() /
                                std::max<size_t>(1, records.experiment_count())) +
                 " resolutions/experiment");
}
BENCHMARK(BM_FullExperiment)->Unit(benchmark::kMillisecond);

void BM_SingleCellResolution(benchmark::State& state) {
  core::World world;
  auto& carrier = world.carrier(0);
  cellular::Fleet fleet(&carrier, 1);
  fleet.enroll(0, 2, net::GeoPoint{40.71, -74.01});
  cellular::Device device = fleet.device(0);
  auto rng = bench::bench_rng("micro_study/single-resolution");
  const auto host = dns::DnsName::parse("www.buzzfeed.com");
  int64_t second = 0;
  for (auto _ : state) {
    const auto now = net::SimTime::from_seconds(static_cast<double>(second += 61));
    const auto snapshot = device.begin_experiment(now, rng);
    dns::StubResolver stub(device.gateway_node(), snapshot.public_ip,
                           world.topology(), world.registry());
    benchmark::DoNotOptimize(stub.query(snapshot.configured_resolver, *host,
                                        dns::RRType::kA, now, rng));
  }
}
BENCHMARK(BM_SingleCellResolution);

/// Hit-heavy variant (ISSUE-5 before/after comparison workload): queries
/// arrive one second apart, so almost every resolution is served from the
/// carrier's client-facing cache — the cache + name hot path end to end.
void BM_SingleCellResolutionWarm(benchmark::State& state) {
  core::World world;
  auto& carrier = world.carrier(0);
  cellular::Fleet fleet(&carrier, 1);
  fleet.enroll(0, 3, net::GeoPoint{40.71, -74.01});
  cellular::Device device = fleet.device(0);
  auto rng = bench::bench_rng("micro_study/single-resolution-warm");
  const auto host = dns::DnsName::parse("www.buzzfeed.com");
  int64_t second = 0;
  for (auto _ : state) {
    const auto now = net::SimTime::from_seconds(static_cast<double>(++second));
    const auto snapshot = device.begin_experiment(now, rng);
    dns::StubResolver stub(device.gateway_node(), snapshot.public_ip,
                           world.topology(), world.registry());
    benchmark::DoNotOptimize(stub.query(snapshot.configured_resolver, *host,
                                        dns::RRType::kA, now, rng));
  }
}
BENCHMARK(BM_SingleCellResolutionWarm);

}  // namespace

int main(int argc, char** argv) {
  return curtain::bench::run_micro_benchmarks("micro_study", argc, argv);
}
