// micro_fleet — million-device campaign in bounded memory.
//
// The bounded-memory claim (DESIGN.md §15, §18): campaign memory is set
// by the fleet's SoA arenas, one open record block per shard (the row
// budget plus at most one experiment's rows: blocks seal only at
// experiment boundaries) and one live device per worker — never by how
// many records the campaign streams or
// how many devices it has touched. Each device's resolver caches, query
// ids and NAT cursors live in its worker's net::DeviceState and are freed
// when its timeline ends. This bench proves it by enrolling a 10^6-device fleet
// (four US-carrier profiles widened to 250k study clients each) and
// running the same streaming campaign at increasing durations: records
// streamed grow linearly with length, while resident memory after each
// run must stay flat. Every point is an independent campaign on the same
// world: no device state survives from the previous point.
//
// Every run gives CampaignEngine::run one record store per shard, each
// draining to a discard sink of its own: the bounded-memory use of the
// engine's one run path. Each sink sees its shard's experiment-aligned
// blocks with shard-local experiment ids; nothing here writes CSV
// (analysis::export_records walks a retained, merged store).
//
// Emits one `fleet_memory` JSON line per duration point (committed as
// BENCH_fleet_memory.json). It exits nonzero if RSS after the longest run
// exceeds 1.5x that after the shortest plus 128 MB, or, when
// CURTAIN_RSS_CEILING_MB is set (nonzero), if peak RSS crosses it — the
// scripts/check.sh `rss-smoke` leg runs exactly that.
//
// CURTAIN_SHARDS sizes the worker pool as everywhere else (0 = one per
// hardware thread); CURTAIN_SEED and CURTAIN_BLOCK_ROWS apply too.
// CURTAIN_SCALE scales the fleet (1.0 = the full million; scripts/check.sh
// rss-smoke runs a scaled-down fleet under a proportional ceiling).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cellular/carrier_profile.h"
#include "core/world.h"
#include "exec/engine.h"
#include "measure/record_store.h"
#include "obs/memory.h"

namespace {

using namespace curtain;

constexpr int kClientsPerCarrier = 250000;  // × 4 US carriers = one million

/// CURTAIN_SCALE-adjusted fleet size per carrier (minimum 1 device).
int scaled_clients_per_carrier() {
  const double scaled = util::campaign_scale() * kClientsPerCarrier;
  return scaled < 1.0 ? 1 : static_cast<int>(scaled);
}

/// Counts and discards a shard's record stream; remembers the largest
/// single block it saw (the per-shard memory high-water contribution).
class DiscardSink final : public measure::RecordSink {
 public:
  void consume(measure::RecordBlock&& block) override {
    experiments_ += block.experiments.size();
    records_ += block.rows;
    bytes_ += block.approx_bytes();
    peak_block_bytes_ = std::max(peak_block_bytes_, block.approx_bytes());
    // `block` dies here — streamed memory never accumulates.
  }

  size_t experiments() const { return experiments_; }
  size_t records() const { return records_; }
  size_t bytes() const { return bytes_; }
  size_t peak_block_bytes() const { return peak_block_bytes_; }

 private:
  size_t experiments_ = 0;
  size_t records_ = 0;
  size_t bytes_ = 0;
  size_t peak_block_bytes_ = 0;
};

std::vector<cellular::CarrierProfile> million_device_carriers() {
  std::vector<cellular::CarrierProfile> profiles;
  for (const auto& profile : cellular::study_carriers()) {
    if (profile.country != "US") continue;
    cellular::CarrierProfile widened = profile;
    widened.study_clients = scaled_clients_per_carrier();
    profiles.push_back(std::move(widened));
  }
  return profiles;
}

struct RunPoint {
  double duration_days = 0.0;
  size_t devices = 0;
  size_t shards = 0;
  size_t experiments = 0;
  size_t records = 0;
  double streamed_mb = 0.0;
  double peak_block_mb = 0.0;
  double fleet_arena_mb = 0.0;
  /// Resident memory after the run. The bounded-memory claim is that
  /// THIS stays flat as the campaign streams more records.
  double rss_after_mb = 0.0;
  double wall_ms = 0.0;
};

RunPoint run_campaign(core::World& world, double duration_days, int workers,
                      uint64_t seed) {
  exec::EngineConfig config;
  config.seed = seed;
  config.workers = workers;
  config.cohorts = 0;  // auto-size the partition from the worker count
  config.campaign.duration_days = duration_days;
  // Thin participation: the fleet, not the experiment count, is the
  // point. ~0.001/device/hour keeps the longest sweep point tractable
  // while still streaming tens of thousands of experiments.
  config.campaign.participation = 0.001;

  std::vector<exec::CampaignEngine::CarrierRef> carriers;
  for (size_t c = 0; c < world.carriers().size(); ++c) {
    carriers.push_back(exec::CampaignEngine::CarrierRef{
        world.carrier(c), static_cast<int>(c)});
  }
  exec::CampaignEngine engine(
      measure::WorldView{world.topology(), world.registry()},
      world.research_apex(), std::move(carriers), config);

  std::vector<DiscardSink> sinks(engine.shard_count());
  std::vector<measure::RecordStore> stores(engine.shard_count());
  for (size_t s = 0; s < stores.size(); ++s) stores[s].drain_to(&sinks[s]);

  const auto start = std::chrono::steady_clock::now();  // lint: wallclock
  engine.run(stores);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)  // lint: wallclock
          .count();

  RunPoint point;
  point.duration_days = duration_days;
  point.devices = engine.device_count();
  point.shards = engine.shard_count();
  point.fleet_arena_mb =
      static_cast<double>(engine.fleet_arena_bytes()) / (1024.0 * 1024.0);
  size_t peak_block = 0;
  for (const DiscardSink& sink : sinks) {
    point.experiments += sink.experiments();
    point.records += sink.records();
    point.streamed_mb +=
        static_cast<double>(sink.bytes()) / (1024.0 * 1024.0);
    peak_block = std::max(peak_block, sink.peak_block_bytes());
  }
  point.peak_block_mb = static_cast<double>(peak_block) / (1024.0 * 1024.0);
  point.rss_after_mb =
      static_cast<double>(obs::read_current_rss_bytes()) / (1024.0 * 1024.0);
  point.wall_ms = wall_ms;
  return point;
}

}  // namespace

int main() {
  bench::bench_start();
  std::printf("================================================================\n");
  std::printf("micro_fleet — million-device campaign in bounded memory\n");
  std::printf("================================================================\n");

  int workers = util::campaign_shards();
  if (workers <= 1) {
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores > 1) workers = static_cast<int>(cores > 64 ? 64 : cores);
  }
  const uint64_t seed = util::study_seed();

  core::World world(core::Scenario::paper_2014()
                        .with_seed(seed)
                        .with_carriers(million_device_carriers()));

  // Sweep campaign length at a fixed one-million-device fleet. Records
  // streamed must grow ~linearly with duration while resident memory
  // stays flat — the bounded-memory contract.
  size_t reference_devices = 0;
  double first_rss_mb = 0.0;
  double last_rss_mb = 0.0;
  const unsigned host_cores = std::thread::hardware_concurrency();
  for (const double duration_days : {0.25, 0.5, 1.0}) {
    const RunPoint point = run_campaign(world, duration_days, workers, seed);
    if (reference_devices == 0) reference_devices = point.devices;
    if (first_rss_mb == 0.0) first_rss_mb = point.rss_after_mb;
    last_rss_mb = point.rss_after_mb;

    std::printf(
        "{\"bench_record\":\"fleet_memory\",\"devices\":%zu,"
        "\"duration_days\":%.2f,\"shards\":%zu,\"workers\":%d,"
        "\"experiments\":%zu,\"records\":%zu,\"streamed_mb\":%.1f,"
        "\"peak_block_mb\":%.2f,\"fleet_arena_mb\":%.1f,"
        "\"rss_after_mb\":%.1f,"
        "\"peak_rss_mb\":%.1f,\"wall_ms\":%.1f,\"host_cores\":%u}\n",
        point.devices, point.duration_days, point.shards, workers,
        point.experiments, point.records, point.streamed_mb,
        point.peak_block_mb, point.fleet_arena_mb, point.rss_after_mb,
        static_cast<double>(obs::read_peak_rss_bytes()) / (1024.0 * 1024.0),
        point.wall_ms, host_cores);
  }

  const size_t expected_devices =
      4u * static_cast<size_t>(scaled_clients_per_carrier());
  if (reference_devices != expected_devices) {
    std::printf("FAIL: fleet enrolled %zu devices, expected %zu\n",
                reference_devices, expected_devices);
    return 1;
  }
  // "Flat" allows allocator slack between sweep points (cache nodes churn
  // and glibc keeps some freed pages resident), not growth proportional
  // to the 4x campaign-length spread.
  if (last_rss_mb > first_rss_mb * 1.5 + 128.0) {
    std::printf("FAIL: resident memory grew with campaign length "
                "(%.1f MB -> %.1f MB after the run)\n", first_rss_mb,
                last_rss_mb);
    return 1;
  }

  const size_t ceiling_mb = util::rss_ceiling_mb();
  const double peak_mb =
      static_cast<double>(obs::read_peak_rss_bytes()) / (1024.0 * 1024.0);
  if (ceiling_mb != 0 && peak_mb > static_cast<double>(ceiling_mb)) {
    std::printf("FAIL: peak RSS %.1f MB over CURTAIN_RSS_CEILING_MB=%zu\n",
                peak_mb, ceiling_mb);
    return 1;
  }
  std::printf("peak RSS %.1f MB%s\n", peak_mb,
              ceiling_mb == 0 ? " (no ceiling set)" : " (under ceiling)");
  return 0;
}
