// CampaignEngine: cohort-sharded parallel execution of the campaign.
//
// The fleet is partitioned by device cohort *within* each carrier: every
// (carrier, cohort) pair is one Shard owning a contiguous slice of that
// carrier's fleet. The shard count is carriers × cohorts-per-carrier, so
// parallelism is no longer capped at the carrier count; `workers`
// (CURTAIN_SHARDS, 0 = one per hardware thread) sizes the worker pool and
// `cohorts` (CURTAIN_COHORTS, 0 = auto from the worker count) sizes the
// partition. A fixed pool of worker threads pulls shards from a
// deterministic queue in shard-index order.
//
// Determinism: every result-affecting draw comes from a per-device stream
// keyed by (seed, device id) alone; every piece of result-visible mutable
// state lives in the device's net::DeviceState (net/device_state.h),
// empty when its timeline starts and freed when it ends, and the one value
// that state carries into results — the device's global ordinal — depends
// only on the fleet, never on cohort or worker counts. Workers own
// nothing: the values they share (route trees, anycast ingress rankings,
// nearest-cluster memos) are filled once per World and are deterministic
// functions of the frozen world.
// Fleets are built once per carrier (as SoA arenas the engine owns) and
// sliced into device handles, so the devices themselves are
// partition-invariant too. Shard-index order is (carrier, cohort) order,
// which equals global device-enrollment order, and shard outputs merge in
// that order; together this makes the merged record stream and metrics
// byte-identical for every cohort count and worker count — both knobs are
// purely wall-clock levers.
//
// One run path: the caller owns one measure::RecordStore per shard, and
// shard i appends into stores[i] on its worker thread, which calls
// stores[i].finish() when the shard ends. Whether a store keeps its
// blocks or drains them is the caller's choice (RecordStore::drain_to):
//   * core::Study keeps them and, after the run, hands each shard's store
//     to its merged store in shard-index order (RecordStore::hand_off).
//     Record identity is positional (measure/record_block.h), so the
//     merged store numbers blocks as they join it and the stream is
//     indistinguishable from one sequential run over the same shard order;
//   * bench/micro_fleet drains each store to a sink of its own, which sees
//     its shard's sealed blocks during the run, on the worker thread, with
//     shard-local ids — the bounded-memory path for 10^6-device fleets
//     (peak record memory is one open block per shard).
// After the join, each shard's metrics sheaf is summed into the calling
// thread's registry, in shard order; histogram sums accumulate in fixed
// point, so even the merged totals are exact and partition-invariant.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cellular/fleet.h"
#include "exec/shard.h"
#include "measure/record_store.h"
#include "measure/worldview.h"

namespace curtain::exec {

/// Tunables for one campaign execution.
struct EngineConfig {
  uint64_t seed = 20141105;
  /// Worker threads in the shard pool (>=1). core::Scenario resolves the
  /// CURTAIN_SHARDS=0 "one per hardware thread" default before it gets
  /// here.
  int workers = 1;
  /// Cohorts per carrier; 0 picks enough cohorts to keep `workers` busy
  /// (ceil(4*workers/carriers), clamped to [1, 64]).
  int cohorts = 0;
  measure::CampaignConfig campaign;
};

/// Per-shard execution record, in shard (merge) order. busy_ms,
/// queue_wait_ms and worker are real wall-clock/scheduling facts and
/// exist only for reporting and bench scheduling models — nothing
/// result-visible may read them.
struct ShardStat {
  std::string label;  ///< "<carrier>/cohort<k>"
  int carrier_index = 0;
  int cohort_index = 0;
  size_t devices = 0;
  double busy_ms = 0.0;
  /// Queue-open → pickup wait; 0 unless the flight recorder was armed.
  double queue_wait_ms = 0.0;
  /// Worker lane (1-based) that ran the shard; 0 unless profiled.
  int worker = 0;
};

class CampaignEngine {
 public:
  /// One carrier entry: the network plus its index into the study's
  /// carrier table (references: a null carrier was never a valid state).
  struct CarrierRef {
    cellular::CellularNetwork& network;
    int carrier_index;
  };

  CampaignEngine(measure::WorldView world, const dns::DnsName& research_apex,
                 std::vector<CarrierRef> carriers, EngineConfig config);
  ~CampaignEngine();
  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Devices enrolled across all shards (Table 1 totals).
  size_t device_count() const;

  /// Shards in the partition (carriers × resolved cohorts-per-carrier).
  size_t shard_count() const { return shards_.size(); }

  /// Cohorts per carrier after resolving the auto (0) setting.
  int cohorts_per_carrier() const { return cohorts_; }

  /// Bytes of all carrier fleet arenas (SoA device state). A profiling
  /// gauge — see obs/memory.h.
  size_t fleet_arena_bytes() const;

  /// Runs every shard on a pool of min(workers, shards) threads pulling
  /// from a deterministic queue: shard i appends into `stores[i]`, and its
  /// worker calls stores[i].finish() when the shard ends (so stores of
  /// different shards fill concurrently). `stores` must have exactly
  /// shard_count() entries. Then merges shard metric sheaves into the
  /// calling thread's registry, in shard order.
  void run(std::span<measure::RecordStore> stores);

  /// Populated by run(): one entry per shard, in shard order.
  const std::vector<ShardStat>& shard_stats() const { return stats_; }

 private:
  EngineConfig config_;
  int cohorts_ = 1;
  measure::WorldView world_;
  /// Fleet arenas live here (stable addresses) because shards hold Device
  /// handles that point into them.
  std::vector<std::unique_ptr<cellular::Fleet>> fleets_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ShardStat> stats_;
};

}  // namespace curtain::exec
