// lint-hot-path (per-device hourly wake loop)
#include "exec/shard.h"

#include "net/device_scope.h"
#include "net/time.h"

namespace curtain::exec {
namespace {

struct ShardMetrics {
  obs::Gauge& devices = obs::metrics().gauge(
      "curtain_fleet_devices", "devices enrolled in the campaign fleet");
  obs::Counter& wakeups = obs::metrics().counter(
      "curtain_fleet_wakeups_total",
      "hourly device wake-ups (participation coin tosses)");
};

ShardMetrics& shard_metrics() {
  // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h).
  static thread_local obs::SheafLocal<ShardMetrics> metrics;
  return metrics.get();
}

}  // namespace

Shard::Shard(int shard_index, int carrier_index, int cohort_index,
             cellular::CellularNetwork& network, measure::WorldView world,
             const dns::DnsName& research_apex,
             measure::CampaignConfig campaign,
             measure::ExperimentConfig experiment, uint64_t seed,
             std::vector<CohortDevice> devices)
    : shard_index_(shard_index),
      carrier_index_(carrier_index),
      cohort_index_(cohort_index),
      label_(network.profile().name + "/cohort" + std::to_string(cohort_index)),
      campaign_(campaign),
      seed_(seed),
      runner_(world, measure::ResolverIdentifier(research_apex), experiment),
      devices_(std::move(devices)) {
  sheaf_.set_label(label_);
}

void Shard::stream_to(measure::RecordSink* sink) {
  stream_sink_ = sink;
  records_.drain_to(sink);
}

size_t Shard::approx_record_bytes() const { return records_.approx_bytes(); }

void Shard::run() {
  shard_metrics().devices.set(static_cast<double>(devices_.size()));
  const net::SimTime horizon = net::SimTime::from_days(campaign_.duration_days);
  // The device-stream base deliberately mixes in no shard or cohort index:
  // a device's stream depends only on (study seed, device id), so its whole
  // timeline is identical under every fleet partition.
  const net::Rng campaign_rng(
      net::mix_key(seed_, net::hash_tag("campaign")));

  // Device-major execution: each device's timeline runs to completion
  // before the next device starts. Devices share no mutable state and draw
  // only from their own streams, so no cross-device interleave by
  // simulated time is needed — within a device the timeline is still
  // strictly time-ordered, and the shard's output is the concatenation of
  // its devices' outputs in enrollment order.
  for (CohortDevice& entry : devices_) {
    // The device's state lives exactly as long as its timeline.
    net::DeviceScope scope(entry.ordinal);
    runner_.begin_device();
    net::Rng rng = campaign_rng.derive("device-stream", entry.device.id());
    // Hourly wakes from a per-device phase; each wake tosses the
    // participation coin and possibly runs one experiment.
    net::SimTime at = net::SimTime::from_seconds(rng.uniform(0.0, 3600.0));
    while (at < horizon) {
      shard_metrics().wakeups.inc();
      if (rng.bernoulli(campaign_.participation)) {
        runner_.run(entry.device, carrier_index_, at, rng, records_);
      }
      at = at + net::SimTime::from_hours(1.0);
    }
  }
  if (stream_sink_ != nullptr) {
    // Forward the final partial block and let the sink flush, still on
    // the worker thread: the engine never touches streamed records.
    records_.flush();
    stream_sink_->finish();
  }
}

}  // namespace curtain::exec
