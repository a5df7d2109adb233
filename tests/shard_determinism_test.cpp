// The engine's headline contract (DESIGN.md §13): the merged dataset and
// metrics are a pure function of the Scenario — Scenario::shards (worker
// threads) and Scenario::cohorts (device cohorts per carrier) are purely
// wall-clock levers, never result-visible. We check that by
// byte-comparing every CSV export surface *and* the full Prometheus
// metrics rendering between a serial reference (cohorts=1, workers=1) and
// every combination of cohorts {1,3,7} × workers {1,4} of the same
// Scenario. Cohort count 7 divides none of the six study fleets evenly
// (33, 9, 31, 64, 17, 4 devices) and exceeds the 4-device fleet, so
// uneven slices and empty shards are both exercised.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/export.h"
#include "core/study.h"
#include "core/world.h"
#include "exec/engine.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace curtain {
namespace {

core::Scenario scenario(int cohorts, int workers) {
  // ~0.6 days: a few hundred experiments across all six carriers, enough
  // for every record stream (probes, traceroutes, vantage) to be non-empty.
  return core::Scenario::paper_2014()
      .with_seed(8675309)
      .with_scale(0.004)
      .with_cohorts(cohorts)
      .with_shards(workers);
}

struct Exported {
  size_t devices = 0;
  size_t shards = 0;
  std::string totals;  // summary() minus the wall-clock report suffix
  std::string metrics;  // Prometheus text of the merged global registry
  std::vector<std::string> csv;
};

Exported run_and_export(const core::Scenario& config) {
  // Each run merges its shard sheaves into the global registry; zero it
  // first so the metrics comparison sees exactly one campaign.
  obs::metrics().reset_for_tests();
  core::Study study(config);
  study.run();

  Exported out;
  out.devices = study.device_count();
  out.shards = study.shard_count();
  const std::string summary = study.summary();
  const std::string suffix = study.report().summary_suffix();
  out.totals = summary.substr(0, summary.size() - suffix.size());
  out.metrics = obs::to_prometheus_text(obs::metrics().snapshot());

  using Writer = void (*)(const measure::RecordStore&, std::ostream&);
  static constexpr Writer kWriters[] = {
      analysis::export_experiments_csv,
      analysis::export_resolutions_csv,
      analysis::export_probes_csv,
      analysis::export_traceroutes_csv,
      analysis::export_resolver_observations_csv,
      analysis::export_vantage_probes_csv,
  };
  for (const Writer writer : kWriters) {
    std::ostringstream stream;
    writer(study.records(), stream);
    out.csv.push_back(stream.str());
  }
  return out;
}

void expect_identical(const Exported& a, const Exported& b) {
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.metrics, b.metrics) << "merged metrics diverged";
  ASSERT_EQ(a.csv.size(), b.csv.size());
  static constexpr const char* kSurfaces[] = {
      "experiments", "resolutions",           "probes",
      "traceroutes", "resolver_observations", "vantage_probes"};
  for (size_t i = 0; i < a.csv.size(); ++i) {
    EXPECT_FALSE(a.csv[i].empty()) << kSurfaces[i];
    EXPECT_EQ(a.csv[i], b.csv[i]) << "export surface diverged: "
                                  << kSurfaces[i];
  }
}

TEST(ShardDeterminism, CohortAndWorkerCountsAreByteInvisible) {
  const Exported reference = run_and_export(scenario(1, 1));
  // A degenerate campaign would make byte-equality vacuous.
  EXPECT_GT(reference.devices, 100u);
  EXPECT_GT(reference.csv[0].size(), 1000u);
  EXPECT_EQ(reference.shards, 6u);  // six carriers × one cohort
  EXPECT_NE(reference.metrics.find("curtain_fleet_devices 158"),
            std::string::npos)
      << reference.metrics;

  for (const int cohorts : {1, 3, 7}) {
    for (const int workers : {1, 4}) {
      if (cohorts == 1 && workers == 1) continue;
      const Exported run = run_and_export(scenario(cohorts, workers));
      EXPECT_EQ(run.shards, 6u * static_cast<size_t>(cohorts));
      SCOPED_TRACE("cohorts=" + std::to_string(cohorts) +
                   " workers=" + std::to_string(workers));
      expect_identical(reference, run);
    }
  }
}

TEST(ShardDeterminism, ParallelRunsAreReproducible) {
  const Exported first = run_and_export(scenario(3, 4));
  const Exported second = run_and_export(scenario(3, 4));
  expect_identical(first, second);
}

TEST(ShardDeterminism, AutoCohortsMatchTheSerialReference) {
  // cohorts=0 lets the engine size the partition from the worker count;
  // whatever it picks must still be invisible in the exports.
  const Exported reference = run_and_export(scenario(1, 1));
  const Exported auto_sized = run_and_export(scenario(0, 4));
  expect_identical(reference, auto_sized);
}

// High cohort × worker counts (96 shards on 16 threads, with empty shards
// for the 4-device carrier): the scripts/check.sh TSAN leg runs this
// suite to check that worker threads share no mutable state.
TEST(ShardDeterminism, StressManyCohortsManyWorkers) {
  const Exported reference = run_and_export(scenario(1, 1));
  const Exported stressed = run_and_export(scenario(16, 16));
  EXPECT_EQ(stressed.shards, 96u);
  expect_identical(reference, stressed);
}

// The record-block row budget (CURTAIN_BLOCK_ROWS) decides only when a
// block seals — never a byte of any export surface, at any shard/cohort
// shape. Sweeps from the minimum budget (every block seals almost
// immediately) to one larger than the whole campaign (a single block).
TEST(ShardDeterminism, BlockRowBudgetIsByteInvisible) {
  const Exported reference = run_and_export(scenario(1, 1));
  for (const char* rows : {"256", "1024", "1048576"}) {
    ::setenv("CURTAIN_BLOCK_ROWS", rows, 1);
    SCOPED_TRACE(std::string("CURTAIN_BLOCK_ROWS=") + rows);
    const Exported run = run_and_export(scenario(3, 4));
    expect_identical(reference, run);
  }
  ::unsetenv("CURTAIN_BLOCK_ROWS");
}

/// Keeps every block one shard streams, and counts finish() calls.
class CollectingSink final : public measure::RecordSink {
 public:
  void consume(measure::RecordBlock&& block) override {
    blocks.push_back(std::move(block));
  }
  void finish() override { ++finish_calls; }

  std::vector<measure::RecordBlock> blocks;
  int finish_calls = 0;
};

/// Every row of `block` must find its experiment (and a sampled
/// resolution its trace) inside the block itself: each experiment slot
/// indexes the block's experiments, and a row's context is that slot's.
void expect_experiment_aligned(const measure::RecordBlock& block) {
  const size_t experiments = block.experiments.size();
  for (size_t i = 0; i < block.resolutions.size(); ++i) {
    const uint32_t slot = block.resolutions.experiment_slot[i];
    ASSERT_LT(slot, experiments);
    const measure::ResolutionRow row = block.resolution_row(i);
    EXPECT_EQ(row.experiment_id, block.first_experiment_id + slot);
    EXPECT_EQ(&row.context(), &block.experiments[slot]);
    if (row.trace_slot >= 0) {
      ASSERT_LT(static_cast<size_t>(row.trace_slot), block.traces.size());
      EXPECT_NEAR(row.trace()->total_ms, row.resolution_ms, 1e-6);
    }
  }
  for (const uint32_t slot : block.probes.experiment_slot) {
    EXPECT_LT(slot, experiments) << "probe";
  }
  for (const uint32_t slot : block.traceroutes.experiment_slot) {
    EXPECT_LT(slot, experiments) << "traceroute";
  }
  for (const uint32_t slot : block.observations.experiment_slot) {
    EXPECT_LT(slot, experiments) << "observation";
  }
}

/// An engine over `world` with the scenario's execution settings, built
/// as core::Study builds its own.
std::unique_ptr<exec::CampaignEngine> make_engine(
    core::World& world, const core::Scenario& config) {
  exec::EngineConfig engine_config;
  engine_config.seed = config.seed;
  engine_config.workers = config.shards;
  engine_config.cohorts = config.cohorts;
  engine_config.campaign = config.campaign_config();
  std::vector<exec::CampaignEngine::CarrierRef> carriers;
  for (size_t c = 0; c < world.carriers().size(); ++c) {
    carriers.push_back(exec::CampaignEngine::CarrierRef{
        world.carrier(c), static_cast<int>(c)});
  }
  return std::make_unique<exec::CampaignEngine>(
      measure::WorldView{world.topology(), world.registry()},
      world.research_apex(), std::move(carriers), engine_config);
}

// The bounded-memory use of the engine: each shard's store drains its
// sealed blocks to that shard's own sink on the worker thread. Each sink
// must see a complete shard-local stream (block bases running dense from
// 0, experiment-aligned blocks, one finish()), and the shards together
// must carry exactly the campaign Study merges from retained stores —
// consumed into one store in shard order, the streams export the same
// campaign bytes. The minimum block budget makes every shard seal many
// blocks.
TEST(ShardDeterminism, StreamingRunDeliversAlignedShardStreams) {
  ::setenv("CURTAIN_BLOCK_ROWS", "256", 1);
  for (const int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const core::Scenario config = scenario(3, workers);
    obs::metrics().reset_for_tests();
    core::Study study(config);
    study.run();
    const measure::RecordStore& merged = study.records();

    core::World world(config);
    const auto engine = make_engine(world, config);
    std::vector<CollectingSink> sinks(engine->shard_count());
    std::vector<measure::RecordStore> stores(engine->shard_count());
    for (size_t s = 0; s < stores.size(); ++s) stores[s].drain_to(&sinks[s]);
    engine->run(stores);

    size_t experiments = 0;
    size_t resolutions = 0;
    size_t probes = 0;
    size_t traceroutes = 0;
    size_t observations = 0;
    size_t traces = 0;
    size_t blocks = 0;
    for (size_t s = 0; s < sinks.size(); ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      EXPECT_EQ(sinks[s].finish_calls, 1);
      uint32_t next_base = 0;
      for (const measure::RecordBlock& block : sinks[s].blocks) {
        EXPECT_EQ(block.first_experiment_id, next_base);
        next_base += static_cast<uint32_t>(block.experiments.size());
        expect_experiment_aligned(block);
        experiments += block.experiments.size();
        resolutions += block.resolutions.size();
        probes += block.probes.size();
        traceroutes += block.traceroutes.size();
        observations += block.observations.size();
        traces += block.traces.size();
        EXPECT_TRUE(block.vantage_probes.empty());
      }
      blocks += sinks[s].blocks.size();
    }
    EXPECT_GT(blocks, sinks.size()) << "no shard sealed more than one block";
    EXPECT_EQ(experiments, merged.experiment_count());
    EXPECT_EQ(resolutions, merged.resolution_count());
    EXPECT_EQ(probes, merged.probe_count());
    EXPECT_EQ(traceroutes, merged.traceroute_count());
    EXPECT_EQ(observations, merged.observation_count());
    EXPECT_EQ(traces, merged.trace_count());
    EXPECT_GT(traces, 0u);

    // Draining and retaining give the same stream. Vantage probes are left
    // out: Study adds them after its merge.
    measure::RecordStore replayed;
    replayed.set_carriers(config.carrier_table());
    for (CollectingSink& sink : sinks) {
      for (measure::RecordBlock& block : sink.blocks) {
        replayed.consume(std::move(block));
      }
    }
    using Writer = void (*)(const measure::RecordStore&, std::ostream&);
    static constexpr std::pair<const char*, Writer> kCampaignSurfaces[] = {
        {"experiments", analysis::export_experiments_csv},
        {"resolutions", analysis::export_resolutions_csv},
        {"probes", analysis::export_probes_csv},
        {"traceroutes", analysis::export_traceroutes_csv},
        {"resolver_observations", analysis::export_resolver_observations_csv},
    };
    for (const auto& [surface, writer] : kCampaignSurfaces) {
      std::ostringstream from_study;
      std::ostringstream from_streams;
      writer(merged, from_study);
      writer(replayed, from_streams);
      EXPECT_FALSE(from_study.str().empty()) << surface;
      EXPECT_EQ(from_streams.str(), from_study.str())
          << "drained streams diverged from the merged store: " << surface;
    }
  }
  ::unsetenv("CURTAIN_BLOCK_ROWS");
}

// run() takes exactly one record store per shard.
TEST(ShardDeterminism, RunNeedsOneStorePerShard) {
  const core::Scenario config = scenario(3, 1);
  core::World world(config);
  const auto engine = make_engine(world, config);
  ASSERT_EQ(engine->shard_count(), 18u);
  std::vector<measure::RecordStore> too_few(engine->shard_count() - 1);
  EXPECT_DEATH(engine->run(too_few), "one record store per shard: 17 stores");
  std::vector<measure::RecordStore> too_many(engine->shard_count() + 1);
  EXPECT_DEATH(engine->run(too_many), "one record store per shard: 19 stores");
}

// Drops the curtain_mem_* gauges a profiled run registers — the only
// metrics delta the flight recorder is allowed to introduce.
std::string strip_memory_gauges(const std::string& metrics) {
  std::istringstream in(metrics);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("curtain_mem_") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

// The flight recorder must be a pure observer: arming it (and writing a
// chrome trace) may add profiling metadata but can never change a byte of
// the dataset exports or of any pre-existing metric.
TEST(ShardDeterminism, FlightRecorderIsByteInvisible) {
  const std::string trace_path =
      testing::TempDir() + "curtain_determinism_trace.json";
  const Exported off = run_and_export(scenario(3, 2));
  Exported on = run_and_export(scenario(3, 2).with_profile_out(trace_path));

  // Metrics may differ only by the added curtain_mem_* gauges.
  EXPECT_NE(on.metrics, off.metrics)
      << "profiled run registered no memory gauges";
  EXPECT_EQ(strip_memory_gauges(on.metrics), off.metrics);
  on.metrics = off.metrics;
  expect_identical(off, on);
  std::remove(trace_path.c_str());
}

// Schema sanity of the exported chrome trace: it must parse as the
// trace_event object form and carry one span per shard.
TEST(ShardDeterminism, ChromeTraceCarriesEveryShard) {
  const std::string trace_path =
      testing::TempDir() + "curtain_schema_trace.json";
  obs::metrics().reset_for_tests();
  core::Study study(scenario(3, 2).with_profile_out(trace_path));
  study.run();
  ASSERT_EQ(study.shard_count(), 18u);

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();

  EXPECT_NE(trace.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"otherData\": {\"workers\": 2, \"shards\": 18}"),
            std::string::npos);
  // One complete-event span per shard: every span carries its shard
  // index argument exactly once.
  size_t shard_spans = 0;
  for (size_t pos = trace.find("\"shard\": "); pos != std::string::npos;
       pos = trace.find("\"shard\": ", pos + 1)) {
    ++shard_spans;
  }
  EXPECT_EQ(shard_spans, 18u);
  // The run's profile landed in the report, in shard order.
  const obs::RunReport& report = study.report();
  EXPECT_TRUE(report.profile.enabled);
  ASSERT_EQ(report.profile.shards.size(), 18u);
  EXPECT_EQ(report.config.workers, 2);
  EXPECT_EQ(report.config.shards, 18u);
  for (const auto& shard : report.profile.shards) {
    EXPECT_GE(shard.worker, 1);
    EXPECT_LE(shard.worker, 2);
    EXPECT_GE(shard.queue_wait_ms, 0.0);
  }
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace curtain
