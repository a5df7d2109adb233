// Microbenchmarks at the campaign level: world construction and full
// experiment throughput — what bounds a CURTAIN_SCALE=1 run — plus the
// analysis pass that follows it: the probes CSV export, Fig. 14's replica
// grouping and the headline bootstrap. BM_FullExperiment also counts the heap allocations one
// experiment makes, through a counting operator new local to this binary.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <new>
#include <ostream>
#include <streambuf>

#include "analysis/export.h"
#include "analysis/figures.h"
#include "analysis/stats.h"
#include "bench_common.h"
#include "cdn/domains.h"
#include "cellular/device.h"
#include "core/study.h"
#include "core/world.h"
#include "dns/stub.h"
#include "measure/experiment.h"
#include "net/device_state.h"

/// Heap allocations made by the calling thread through operator new (the
/// array and nothrow forms forward to it).
thread_local uint64_t thread_allocations = 0;

void* operator new(std::size_t size) {
  ++thread_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs the inlined free() with the new-expressions it deletes and
// warns; both halves are the replacements above, so they match.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

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
  // The device's caches and NAT cursor live in its state, made once so
  // they persist across iterations as over one device's timeline.
  net::DeviceState device_state(1);
  measure::RecordStore records;
  auto rng = bench::bench_rng("micro_study/full-experiment");
  int64_t hour = 0;
  const uint64_t allocations_before = thread_allocations;
  for (auto _ : state) {
    runner.run(device, 0, net::SimTime::from_hours(static_cast<double>(++hour)),
               rng, device_state, records);
  }
  const uint64_t allocations = thread_allocations - allocations_before;
  const size_t experiments = std::max<size_t>(1, records.experiment_count());
  state.SetLabel(std::to_string(records.resolution_count() / experiments) +
                 " resolutions/experiment, " +
                 std::to_string(allocations / experiments) +
                 " allocations/experiment");
}
BENCHMARK(BM_FullExperiment)->Unit(benchmark::kMillisecond);

void BM_SingleCellResolution(benchmark::State& state) {
  core::World world;
  auto& carrier = world.carrier(0);
  cellular::Fleet fleet(&carrier, 1);
  fleet.enroll(0, 2, net::GeoPoint{40.71, -74.01});
  cellular::Device device = fleet.device(0);
  net::DeviceState device_state(2);  // one device's state across iterations
  auto rng = bench::bench_rng("micro_study/single-resolution");
  const auto host = dns::DnsName::parse("www.buzzfeed.com");
  int64_t second = 0;
  for (auto _ : state) {
    const auto now = net::SimTime::from_seconds(static_cast<double>(second += 61));
    const auto snapshot = device.begin_experiment(now, rng, device_state);
    dns::StubResolver stub(device.gateway_node(), snapshot.public_ip,
                           world.topology(), world.registry());
    benchmark::DoNotOptimize(stub.query(snapshot.configured_resolver, *host,
                                        dns::RRType::kA, now, rng,
                                        device_state));
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
  net::DeviceState device_state(3);  // one device's state across iterations
  auto rng = bench::bench_rng("micro_study/single-resolution-warm");
  const auto host = dns::DnsName::parse("www.buzzfeed.com");
  int64_t second = 0;
  for (auto _ : state) {
    const auto now = net::SimTime::from_seconds(static_cast<double>(++second));
    const auto snapshot = device.begin_experiment(now, rng, device_state);
    dns::StubResolver stub(device.gateway_node(), snapshot.public_ip,
                           world.topology(), world.registry());
    benchmark::DoNotOptimize(stub.query(snapshot.configured_resolver, *host,
                                        dns::RRType::kA, now, rng,
                                        device_state));
  }
}
BENCHMARK(BM_SingleCellResolutionWarm);

/// Counts and drops everything written to it: the export's formatting cost
/// without the file system's.
class DiscardBuf : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override {
    setp(buffer_, buffer_ + sizeof(buffer_));
    return traits_type::not_eof(ch);
  }

 private:
  char buffer_[1 << 16];
};

/// Synthetic probes at paper_repro's density, ~115 per experiment, cycling
/// through target kinds, resolver kinds, study domains and ping/HTTP.
measure::RecordStore synthetic_probe_store(int experiments, net::Rng& rng) {
  measure::RecordStore records;
  const auto domains = static_cast<uint16_t>(cdn::study_domains().size());
  for (int e = 0; e < experiments; ++e) {
    measure::ExperimentContext context;
    context.device_id = static_cast<uint64_t>(e / 14);
    context.carrier_index = e % 6;
    context.started = net::SimTime::from_hours(e);
    context.public_ip = net::Ipv4Addr(static_cast<uint32_t>(rng.next_u64()));
    records.add_experiment(context);
    for (int i = 0; i < 115; ++i) {
      measure::ProbeMeasurement probe;
      probe.target_kind = static_cast<measure::ProbeTargetKind>(i % 5);
      probe.resolver = static_cast<measure::ResolverKind>(i % 3);
      probe.domain_index = static_cast<uint16_t>(i % domains);
      probe.target_ip = net::Ipv4Addr(static_cast<uint32_t>(rng.next_u64()));
      probe.is_http = i % 2 == 0;
      probe.responded = i % 7 != 0;
      probe.rtt_ms = probe.responded ? rng.lognormal_median(45.0, 0.6) : 0.0;
      records.add_probe(probe);
    }
  }
  return records;
}

void BM_ExportProbesCsv(benchmark::State& state) {
  auto rng = bench::bench_rng("micro_study/export-probes");
  const measure::RecordStore records = synthetic_probe_store(2000, rng);
  DiscardBuf buffer;
  std::ostream out(&buffer);
  for (auto _ : state) analysis::export_probes_csv(records, out);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.probe_count()));
}
BENCHMARK(BM_ExportProbesCsv)->Unit(benchmark::kMillisecond);

/// All six CSV surfaces of a paper_repro campaign (paper_2014, seed
/// 20141105, scale 0.02: ~122k resolutions, ~261k probes) written into a
/// discarding stream; items are rows. The campaign runs once per benchmark
/// run, outside the timed loop.
void BM_ExportDataset(benchmark::State& state) {
  core::Study study(
      core::Scenario::paper_2014().with_seed(20141105).with_scale(0.02));
  study.run();
  const measure::RecordStore& records = study.records();
  DiscardBuf buffer;
  std::ostream out(&buffer);
  for (auto _ : state) {
    analysis::export_experiments_csv(records, out);
    analysis::export_resolutions_csv(records, out);
    analysis::export_probes_csv(records, out);
    analysis::export_traceroutes_csv(records, out);
    analysis::export_resolver_observations_csv(records, out);
    analysis::export_vantage_probes_csv(records, out);
  }
  const size_t rows = records.experiment_count() +
                      records.resolution_count() + records.probe_count() +
                      records.traceroute_count() +
                      records.observation_count() + records.vantage_count();
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_ExportDataset)->Unit(benchmark::kMillisecond);

/// Fig. 14's grouping of replica HTTP samples into public-vs-local deltas,
/// over a paper_repro campaign (paper_2014, seed 20141105, scale 0.02:
/// ~230k probes, ~41k deltas). The campaign runs once per benchmark run,
/// outside the timed loop.
void BM_Fig14Delta(benchmark::State& state) {
  core::Study study(
      core::Scenario::paper_2014().with_seed(20141105).with_scale(0.02));
  study.run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::fig14_public_replica_delta(study.records()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(study.records().probe_count()));
}
BENCHMARK(BM_Fig14Delta)->Unit(benchmark::kMillisecond);

/// The report's headline interval at paper_repro size: 500 resamples of
/// n = 40k public-vs-local replica deltas, ~80 % of them at or below 0
/// (most exactly 0, so the threshold sits on a long run of ties).
void BM_BootstrapHeadline(benchmark::State& state) {
  auto rng = bench::bench_rng("micro_study/bootstrap-headline");
  analysis::Ecdf deltas;
  for (int i = 0; i < 40000; ++i) {
    deltas.add(rng.bernoulli(0.7) ? 0.0 : rng.normal(20.0, 40.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::bootstrap_fraction_at_or_below(deltas, 0.0, 500, 7));
  }
}
BENCHMARK(BM_BootstrapHeadline)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return curtain::bench::run_micro_benchmarks("micro_study", argc, argv);
}
