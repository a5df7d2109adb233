// Shard: one (carrier, cohort) slice of the campaign.
//
// The campaign is embarrassingly parallel per *device*: a device only
// ever touches its own device-scoped state (net/device_scope.h) plus the
// immutable world substrate, so the fleet can be partitioned into any
// number of cohorts per carrier. A shard owns everything mutable its slice
// of devices touches during the run:
//
//   * the cohort's devices (handles into the carrier's SoA fleet built by
//     cellular::build_carrier_fleet), each carrying its global ordinal,
//   * an ExperimentRunner whose sampling counters reset per device,
//   * a private RecordStore the measurements append to, and
//   * a private metrics sheaf (obs::MetricsRegistry) all metric handles
//     on the executing thread bind to while the shard runs.
//
// Execution is device-major: each device's whole timeline (hourly wakes
// from its phase to the horizon) runs to completion inside its own
// net::DeviceScope, which frees the device's resolver caches, query ids
// and NAT cursors when the timeline ends, before the next device starts.
// Live device state is thus one device per worker. Every result-affecting
// draw comes from the device's own stream, derived from (study seed,
// device id) alone — no shard or cohort index anywhere — so the shard's
// output is the concatenation of its devices' outputs regardless of the
// partition. CampaignEngine merges shard record streams in (carrier,
// cohort) order, which makes the merged stream byte-identical for every
// cohort count and worker count.
//
// For memory-bounded runs, stream_to() puts the shard's store into
// draining mode: sealed record blocks are forwarded to the given sink on
// the worker thread (with shard-local ids) instead of being retained.
#pragma once

#include <string>
#include <vector>

#include "cellular/carrier.h"
#include "cellular/device.h"
#include "measure/campaign.h"
#include "measure/experiment.h"
#include "measure/record_store.h"
#include "measure/worldview.h"
#include "net/rng.h"
#include "obs/metrics.h"

namespace curtain::exec {

class Shard {
 public:
  /// One enrolled device plus its fleet-wide enrollment ordinal
  /// (1-based; carried by its net::DeviceScope, it seeds NAT cursors).
  struct CohortDevice {
    cellular::Device device;
    int ordinal = 0;
  };

  Shard(int shard_index, int carrier_index, int cohort_index,
        cellular::CellularNetwork& network, measure::WorldView world,
        const dns::DnsName& research_apex, measure::CampaignConfig campaign,
        uint64_t seed, std::vector<CohortDevice> devices);

  int shard_index() const { return shard_index_; }
  int carrier_index() const { return carrier_index_; }
  int cohort_index() const { return cohort_index_; }
  size_t device_count() const { return devices_.size(); }
  /// "<carrier>/cohort<k>", the sheaf label and log/stat identity.
  const std::string& label() const { return label_; }

  /// The shard's private outputs; owned here until the engine merges them.
  measure::RecordStore& records() { return records_; }
  obs::MetricsRegistry& sheaf() { return sheaf_; }

  /// Streams sealed record blocks to `sink` (on the worker thread, with
  /// shard-local ids) instead of retaining them. Must be set before run().
  void stream_to(measure::RecordSink* sink);

  /// Approximate heap bytes of the shard's private record store — what
  /// this shard contributed to the run's memory high-water mark. A
  /// profiling gauge for the flight recorder (obs/memory.h).
  size_t approx_record_bytes() const;

  /// Runs the shard's whole campaign into its private record store. Must
  /// run with the sheaf (obs::ScopedMetricsSheaf) bound; opens each
  /// device's net::DeviceScope itself.
  void run();

 private:
  int shard_index_;
  int carrier_index_;
  int cohort_index_;
  std::string label_;
  measure::CampaignConfig campaign_;
  uint64_t seed_;
  measure::ExperimentRunner runner_;
  std::vector<CohortDevice> devices_;
  measure::RecordStore records_;
  measure::RecordSink* stream_sink_ = nullptr;
  obs::MetricsRegistry sheaf_;
};

}  // namespace curtain::exec
