// Shard: one (carrier, cohort) slice of the campaign.
//
// The campaign is embarrassingly parallel per *device*: a device only
// ever touches its own device state (net/device_state.h) plus the
// immutable world substrate, so the fleet can be partitioned into any
// number of cohorts per carrier. A shard owns everything mutable its slice
// of devices touches during the run:
//
//   * the cohort's devices (handles into the carrier's SoA fleet built by
//     cellular::build_carrier_fleet), each carrying its global ordinal,
//   * an ExperimentRunner whose sampling counters reset per device, and
//   * a private metrics sheaf (obs::MetricsRegistry) all metric handles
//     on the executing thread bind to while the shard runs.
//
// Execution is device-major: each device's whole timeline (hourly wakes
// from its phase to the horizon) runs to completion against the shard's
// one net::DeviceState, which is reset at the start of each device, so
// the last device's resolver caches, query ids and NAT cursors are freed
// before the next device starts. Live device state is thus one device per
// worker. Every result-affecting draw comes from the device's own stream,
// derived from (study seed, device id) alone — no shard or cohort index
// anywhere — so the shard's output is the concatenation of its devices'
// outputs regardless of the partition. Records go to a RecordStore the
// engine's caller owns, one per shard, which keeps or drains its blocks as
// that caller chose; merging the stores in (carrier, cohort) order makes
// the merged stream byte-identical for every cohort count and worker
// count.
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
  /// (1-based; carried by its net::DeviceState, it seeds NAT cursors).
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

  /// The shard's private metrics; owned here until the engine merges them.
  obs::MetricsRegistry& sheaf() { return sheaf_; }

  /// Runs the shard's whole campaign, appending its records to `records`.
  /// Must run with the sheaf (obs::ScopedMetricsSheaf) bound; keeps the
  /// devices' net::DeviceState itself.
  void run(measure::RecordStore& records);

 private:
  int shard_index_;
  int carrier_index_;
  int cohort_index_;
  std::string label_;
  measure::CampaignConfig campaign_;
  uint64_t seed_;
  measure::ExperimentRunner runner_;
  std::vector<CohortDevice> devices_;
  obs::MetricsRegistry sheaf_;
};

}  // namespace curtain::exec
