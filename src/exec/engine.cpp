#include "exec/engine.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>

#include "obs/flight_recorder.h"
#include "obs/memory.h"
#include "util/contract.h"

namespace curtain::exec {
namespace {

/// Cohorts per carrier for the auto (cohorts == 0) setting: oversubscribe
/// the worker pool ~4× so the deterministic pull queue load-balances
/// uneven carrier fleets, clamped to the same [1, 64] band as the
/// explicit knob.
int resolve_cohorts(int cohorts, int workers, size_t carriers) {
  if (cohorts >= 1) return cohorts > 64 ? 64 : cohorts;
  if (carriers == 0) return 1;
  const int want = static_cast<int>(
      (4 * static_cast<size_t>(workers) + carriers - 1) / carriers);
  if (want < 1) return 1;
  return want > 64 ? 64 : want;
}

/// Device-id band width: 1000 at paper scale (so ids match the study's
/// published numbering exactly), widened by decimal orders of magnitude
/// when any carrier's fleet outgrows it — ids stay unique and stable per
/// (carrier, enrollment ordinal) at any fleet size.
uint64_t resolve_id_band(
    const std::vector<CampaignEngine::CarrierRef>& carriers) {
  uint64_t band = 1000;
  for (const auto& carrier : carriers) {
    const auto clients =
        static_cast<uint64_t>(carrier.network.profile().study_clients);
    while (clients >= band) band *= 1000;
  }
  return band;
}

}  // namespace

CampaignEngine::CampaignEngine(measure::WorldView world,
                               const dns::DnsName& research_apex,
                               std::vector<CarrierRef> carriers,
                               EngineConfig config)
    : config_(config), world_(world) {
  if (config_.workers < 1) config_.workers = 1;
  cohorts_ = resolve_cohorts(config_.cohorts, config_.workers,
                             carriers.size());
  const uint64_t id_band = resolve_id_band(carriers);

  // Build each carrier's fleet arena exactly once, then slice it into
  // cohorts of device handles. Device ordinals are 1-based global
  // enrollment positions: they advance across carriers in carrier-table
  // order and never depend on the cohort count, so a device keeps the
  // same ordinal — and therefore the same NAT-cursor seed — under every
  // partition.
  int shard_index = 0;
  int ordinal_base = 1;
  for (const CarrierRef& carrier : carriers) {
    fleets_.push_back(
        std::make_unique<cellular::Fleet>(cellular::build_carrier_fleet(
            carrier.network, carrier.carrier_index, config_.seed, id_band)));
    cellular::Fleet& fleet = *fleets_.back();
    const size_t fleet_size = fleet.size();
    for (int k = 0; k < cohorts_; ++k) {
      // Contiguous slice [k*N/C, (k+1)*N/C): covers the fleet exactly,
      // allows empty cohorts when cohorts > fleet size.
      const size_t begin =
          fleet_size * static_cast<size_t>(k) / static_cast<size_t>(cohorts_);
      const size_t end = fleet_size * static_cast<size_t>(k + 1) /
                         static_cast<size_t>(cohorts_);
      std::vector<Shard::CohortDevice> slice;
      slice.reserve(end - begin);
      for (size_t d = begin; d < end; ++d) {
        slice.push_back(Shard::CohortDevice{
            fleet.device(d), ordinal_base + static_cast<int>(d)});
      }
      shards_.push_back(std::make_unique<Shard>(
          shard_index++, carrier.carrier_index, k, carrier.network, world,
          research_apex, config_.campaign, config_.seed, std::move(slice)));
    }
    CURTAIN_CHECK(fleet_size <=
                  static_cast<size_t>(std::numeric_limits<int>::max() -
                                      ordinal_base))
        << "device ordinals overflow int";
    ordinal_base += static_cast<int>(fleet_size);
  }
}

CampaignEngine::~CampaignEngine() = default;

size_t CampaignEngine::device_count() const {
  size_t count = 0;
  for (const auto& shard : shards_) count += shard->device_count();
  return count;
}

size_t CampaignEngine::fleet_arena_bytes() const {
  size_t bytes = 0;
  for (const auto& fleet : fleets_) bytes += fleet->arena_bytes();
  return bytes;
}

void CampaignEngine::run(std::span<measure::RecordStore> stores) {
  CURTAIN_CHECK(stores.size() == shards_.size())
      << "run needs one record store per shard: " << stores.size()
      << " stores for " << shards_.size() << " shards";
  stats_.assign(shards_.size(), ShardStat{});
  for (size_t i = 0; i < shards_.size(); ++i) {
    stats_[i].label = shards_[i]->label();
    stats_[i].carrier_index = shards_[i]->carrier_index();
    stats_[i].cohort_index = shards_[i]->cohort_index();
    stats_[i].devices = shards_[i]->device_count();
  }

  // Fixed worker pool over a deterministic queue: workers pull the next
  // shard index from an atomic cursor, so shards start in index order no
  // matter which worker frees up first. Which worker runs which shard
  // varies run to run — that's fine, because nothing result-visible is
  // keyed by the worker: device state is reset for every device, and the
  // world-derived values that workers share (route trees, anycast ingress
  // rankings, nearest-cluster memos) are deterministic functions of the
  // frozen world, whichever worker fills them first.
  const size_t pool = std::min(static_cast<size_t>(config_.workers),
                               shards_.size() == 0 ? size_t{1}
                                                   : shards_.size());

  // Flight-recorder hooks. One enabled() test (a relaxed load) when off;
  // everything below the `profiling` branches is per *shard*, so the
  // unprofiled campaign pays a few branches per shard, not per event.
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  const bool profiling = recorder.enabled();
  if (profiling) {
    std::vector<obs::FlightRecorder::ShardMeta> meta;
    meta.reserve(shards_.size());
    for (const auto& shard : shards_) {
      meta.push_back(obs::FlightRecorder::ShardMeta{
          shard->label(), shard->carrier_index(), shard->cohort_index(),
          shard->device_count()});
    }
    recorder.begin_run(pool, std::move(meta));
  }
  const int64_t queue_open_us = profiling ? recorder.now_us() : 0;

  std::atomic<size_t> next{0};
  auto work = [this, stores, &next, &recorder, profiling,
               queue_open_us](uint16_t worker_lane) {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= shards_.size()) return;
      Shard& shard = *shards_[i];
      // Wall-clock per-shard busy time, for shard_stats() reporting and
      // the bench scheduling model only — never result-visible.
      const int64_t pickup_us = profiling ? recorder.now_us() : 0;
      const auto started = std::chrono::steady_clock::now();  // lint: wallclock
      {
        obs::ScopedMetricsSheaf sheaf(shard.sheaf());
        shard.run(stores[i]);
        // A draining store forwards its last block and finishes its sink
        // here, on the worker thread.
        stores[i].finish();
      }
      const auto elapsed =
          std::chrono::steady_clock::now() - started;  // lint: wallclock
      stats_[i].busy_ms =
          std::chrono::duration<double, std::milli>(elapsed).count();
      if (profiling) {
        // Queue depth after this pickup: shards nobody has pulled yet
        // (approximate under concurrent pulls; monotone per worker).
        const size_t pulled =
            std::min(next.load(std::memory_order_relaxed), shards_.size());
        recorder.record_shard(
            worker_lane, static_cast<int32_t>(i), pickup_us,
            recorder.now_us(), pickup_us - queue_open_us,
            static_cast<double>(shards_.size() - pulled),
            obs::read_current_rss_bytes(), stores[i].approx_bytes());
        stats_[i].queue_wait_ms =
            static_cast<double>(pickup_us - queue_open_us) / 1000.0;
        stats_[i].worker = worker_lane;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(pool);
  for (size_t w = 0; w < pool; ++w) {
    threads.emplace_back(work, static_cast<uint16_t>(w + 1));
  }
  for (auto& thread : threads) thread.join();

  // Sheaves merge in shard-index order, whichever worker finished when.
  const int64_t merge_metrics_start_us = profiling ? recorder.now_us() : 0;
  for (auto& shard : shards_) {
    obs::metrics().merge_snapshot(shard->sheaf().snapshot());
  }
  if (profiling) {
    recorder.record_phase(0, "merge_metrics", merge_metrics_start_us,
                          recorder.now_us());
    recorder.record_counter(0, "rss_mb", recorder.now_us(),
                            static_cast<double>(obs::read_current_rss_bytes()) /
                                (1024.0 * 1024.0));
  }
}

}  // namespace curtain::exec
