// The hourly experiment script (paper §3.2).
//
// Each run, executed on-device:
//   1. a bootstrap ping to wake the radio (mitigates RRC promotion skew);
//   2. for each of the nine study domains × {local DNS, Google DNS,
//      OpenDNS}: a timed resolution, an immediate back-to-back repeat
//      (cache study, Fig. 7), then ping + HTTP GET (+ sampled traceroute)
//      to every replica address returned;
//   3. resolver identification against the research ADNS for all three
//      resolver kinds;
//   4. ping (+ sampled traceroute) to the configured resolver, to the
//      identified external resolver, and to the public DNS VIPs.
// Probes run back-to-back to hold the radio in its high-power state.
#pragma once

#include "cellular/device.h"
#include "measure/probes.h"
#include "measure/record_store.h"
#include "measure/resolver_ident.h"

namespace curtain::measure {

class ExperimentRunner {
 public:
  ExperimentRunner(WorldView world, ResolverIdentifier identifier);

  /// Resets the runner's sampling counters for a new device timeline.
  /// Trace sampling and identification-probe names then depend only on
  /// (device, position in the device's own history) — never on which
  /// cohort shard ran the device or what ran before it — which keeps
  /// exports byte-identical across cohort partitions. Identification
  /// names stay globally unique because probe_name() keys them by
  /// (device id, per-device counter).
  void begin_device();

  /// Runs one experiment for `device` starting at `start`, against the
  /// resolver caches and NAT cursors in `device_state`; appends the
  /// experiment and then its measurements to `records` (which attaches
  /// them to it) and returns the experiment's end time.
  net::SimTime run(cellular::Device& device, int carrier_index,
                   net::SimTime start, net::Rng& rng,
                   net::DeviceState& device_state, RecordStore& records);

 private:
  /// One resolver kind's slice of the experiment (step 2 for one column).
  void measure_domains(cellular::Device& device, ResolverKind kind,
                       net::Ipv4Addr resolver_ip, net::SimTime& now,
                       net::Rng& rng, net::DeviceState& device_state,
                       RecordStore& records);

  void identify_resolver(cellular::Device& device, ResolverKind kind,
                         net::Ipv4Addr resolver_ip, net::SimTime& now,
                         net::Rng& rng, net::DeviceState& device_state,
                         RecordStore& records);

  void probe_target(cellular::Device& device, ProbeTargetKind target_kind,
                    ResolverKind kind, net::Ipv4Addr target, net::SimTime& now,
                    net::Rng& rng, RecordStore& records,
                    uint16_t domain_index = 0, bool with_http = false);

  ProbeOrigin origin_for(cellular::Device& device, net::SimTime now,
                         net::Rng& rng) const;

  WorldView world_;
  ProbeEngine probes_;
  ResolverIdentifier identifier_;
  /// The study domains' hosts (cdn::study_domains() order), as handles of
  /// the world's name table when the research apex is one.
  std::vector<dns::DnsName> hosts_;
  uint64_t ident_counter_ = 0;       ///< per device; see begin_device()
  uint64_t resolution_counter_ = 0;  ///< drives trace sampling, per device
};

}  // namespace curtain::measure
