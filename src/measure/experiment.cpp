#include "measure/experiment.h"

#include <algorithm>

#include "cdn/domains.h"
#include "dns/name_table.h"
#include "dns/stub.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "publicdns/public_dns.h"
#include "util/smallvec.h"

namespace curtain::measure {
namespace {

/// Fraction of replica/resolver probes that also run a traceroute
/// (traceroutes are bulky; the paper stored 2.4M probes total).
constexpr double kTracerouteSampleP = 0.25;
/// Every Nth domain resolution records a hop-by-hop ResolutionTrace.
constexpr uint64_t kTraceSampleEvery = 64;

net::SimTime ms(double v) { return net::SimTime::from_millis(v); }

struct ExperimentMetrics {
  obs::Counter& experiments = obs::metrics().counter(
      "curtain_measure_experiments_total", "hourly experiment scripts executed");
  obs::Counter& resolutions = obs::metrics().counter(
      "curtain_measure_resolutions_total",
      "timed domain resolutions recorded in the dataset");
  obs::Counter& probes = obs::metrics().counter(
      "curtain_measure_probes_total", "ping/HTTP probes recorded in the dataset");
  obs::Counter& traceroutes = obs::metrics().counter(
      "curtain_measure_traceroutes_total",
      "traceroutes recorded in the dataset");
  obs::Counter& traces = obs::metrics().counter(
      "curtain_measure_traces_sampled_total",
      "resolutions sampled for hop-by-hop tracing");
  obs::Histogram& resolution_ms = obs::metrics().histogram(
      "curtain_dns_resolution_ms", obs::Histogram::latency_ms_buckets(),
      "client-observed resolution time of responded lookups (ms)");
};

ExperimentMetrics& experiment_metrics() {
  // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h).
  static thread_local obs::SheafLocal<ExperimentMetrics> metrics;
  return metrics.get();
}

}  // namespace

const char* resolver_kind_name(ResolverKind kind) {
  switch (kind) {
    case ResolverKind::kLocal: return "local";
    case ResolverKind::kGoogle: return "GoogleDNS";
    case ResolverKind::kOpenDns: return "OpenDNS";
  }
  return "?";
}

ExperimentRunner::ExperimentRunner(WorldView world,
                                   ResolverIdentifier identifier)
    : world_(world), probes_(world), identifier_(std::move(identifier)) {
  // The research apex is one of the world's static names, so when it is a
  // handle its table is the world's: the hosts join the same table.
  const dns::NameTable* names = identifier_.apex().table();
  for (const auto& domain : cdn::study_domains()) {
    dns::DnsName& host = hosts_.emplace_back(*dns::DnsName::parse(domain.host));
    if (names != nullptr) names->intern(host);
  }
}

void ExperimentRunner::begin_device() {
  ident_counter_ = 0;
  resolution_counter_ = 0;
}

ProbeOrigin ExperimentRunner::origin_for(cellular::Device& device,
                                         net::SimTime now,
                                         net::Rng& rng) const {
  ProbeOrigin origin;
  origin.anchor = device.gateway_node();
  origin.source_ip = device.snapshot().public_ip;
  origin.access_rtt_ms = device.access_rtt_ms(now, rng);
  return origin;
}

void ExperimentRunner::probe_target(cellular::Device& device,
                                    ProbeTargetKind target_kind,
                                    ResolverKind kind, net::Ipv4Addr target,
                                    net::SimTime& now, net::Rng& rng,
                                    RecordStore& records,
                                    uint16_t domain_index, bool with_http) {
  {
    const ProbeOrigin origin = origin_for(device, now, rng);
    const PingOutcome ping = probes_.ping(origin, target, now, rng);
    ProbeMeasurement record;
    record.target_kind = target_kind;
    record.resolver = kind;
    record.domain_index = domain_index;
    record.target_ip = target;
    record.is_http = false;
    record.responded = ping.responded;
    record.rtt_ms = ping.rtt_ms;
    records.add_probe(record);
    experiment_metrics().probes.inc();
    now += ms(ping.responded ? ping.rtt_ms : 1000.0);  // timeout cost
  }
  if (with_http) {
    const ProbeOrigin origin = origin_for(device, now, rng);
    const HttpOutcome http = probes_.http_get(origin, target, now, rng);
    ProbeMeasurement record;
    record.target_kind = target_kind;
    record.resolver = kind;
    record.domain_index = domain_index;
    record.target_ip = target;
    record.is_http = true;
    record.responded = http.responded;
    record.rtt_ms = http.ttfb_ms;
    records.add_probe(record);
    experiment_metrics().probes.inc();
    now += ms(http.responded ? http.ttfb_ms : 2000.0);
  }
  if (rng.bernoulli(kTracerouteSampleP)) {
    const ProbeOrigin origin = origin_for(device, now, rng);
    TracerouteOutcome trace = probes_.traceroute(origin, target, now, rng);
    TracerouteMeasurement record;
    record.target_ip = target;
    record.target_kind = target_kind;
    record.reached = trace.reached;
    record.hop_names = std::move(trace.hop_names);
    records.add_traceroute(std::move(record));
    experiment_metrics().traceroutes.inc();
    // One 50 ms hop budget, regardless of hop count: the pre-block code
    // computed this from hop_names *after* moving it into the dataset, so
    // the count it saw was always zero. Kept for byte-compatibility.
    now += ms(50.0);
  }
}

void ExperimentRunner::measure_domains(cellular::Device& device,
                                       ResolverKind kind,
                                       net::Ipv4Addr resolver_ip,
                                       net::SimTime& now, net::Rng& rng,
                                       net::DeviceState& device_state,
                                       RecordStore& records) {
  const auto& domains = cdn::study_domains();
  for (uint16_t d = 0; d < domains.size(); ++d) {
    const dns::DnsName& host = hosts_[d];
    dns::StubResolver stub(device.gateway_node(), device.snapshot().public_ip,
                           world_.topology, world_.registry);
    // First lookup, then an immediate back-to-back repeat (Fig. 7).
    for (const bool second : {false, true}) {
      const double access = device.access_rtt_ms(now, rng);
      // Every Nth resolution is traced hop-by-hop against virtual time.
      const bool sampled = resolution_counter_++ % kTraceSampleEvery == 0;
      obs::Tracer& tracer = obs::Tracer::instance();
      const bool tracing = sampled && tracer.begin(now.millis());
      const dns::StubResult result = stub.query(
          resolver_ip, host, dns::RRType::kA, now, rng, device_state, access);
      DnsMeasurement record;
      record.resolver = kind;
      record.domain_index = d;
      record.responded = result.responded;
      record.second_lookup = second;
      record.resolution_ms = result.responded ? result.total_ms : 5000.0;
      result.append_addresses(record.addresses);
      if (tracing) {
        obs::ResolutionTrace trace = tracer.end(now.millis() + result.total_ms);
        // Attach only complete resolutions: the 5 s timeout sentinel is not
        // decomposable into spans, so it would break the partition invariant.
        if (result.responded) {
          record.trace_slot = records.add_trace(std::move(trace));
          experiment_metrics().traces.inc();
        }
      }
      experiment_metrics().resolutions.inc();
      if (result.responded) {
        experiment_metrics().resolution_ms.observe(result.total_ms);
      }
      now += ms(record.resolution_ms);

      if (!second) {
        // Probe every replica the first resolution returned.
        util::SmallVec<net::Ipv4Addr, 8> replicas = record.addresses;
        net::Ipv4Addr* const first = replicas.data();
        std::sort(first, first + replicas.size());
        const net::Ipv4Addr* const last =
            std::unique(first, first + replicas.size());
        records.add_resolution(std::move(record));
        for (const net::Ipv4Addr* replica = first; replica != last; ++replica) {
          probe_target(device, ProbeTargetKind::kReplica, kind, *replica, now,
                       rng, records, d, /*with_http=*/true);
        }
      } else {
        records.add_resolution(std::move(record));
      }
    }
  }
}

void ExperimentRunner::identify_resolver(cellular::Device& device,
                                         ResolverKind kind,
                                         net::Ipv4Addr resolver_ip,
                                         net::SimTime& now, net::Rng& rng,
                                         net::DeviceState& device_state,
                                         RecordStore& records) {
  const dns::DnsName probe =
      identifier_.probe_name(device.id(), ident_counter_++);
  dns::StubResolver stub(device.gateway_node(), device.snapshot().public_ip,
                         world_.topology, world_.registry);
  const double access = device.access_rtt_ms(now, rng);
  const dns::StubResult result = stub.query(
      resolver_ip, probe, dns::RRType::kA, now, rng, device_state, access);
  ResolverObservation observation;
  observation.resolver = kind;
  observation.resolution_ms = result.total_ms;
  const auto external = ResolverIdentifier::extract(result.answers);
  if (result.responded && external) {
    observation.responded = true;
    observation.external_ip = *external;
  }
  now += ms(result.responded ? result.total_ms : 5000.0);
  records.add_observation(observation);

  // Ping (+ sampled traceroute) the identified external resolver; for the
  // locally configured resolver this is the Fig. 4 "External" series.
  if (observation.responded) {
    probe_target(device, ProbeTargetKind::kExternalResolver, kind,
                 observation.external_ip, now, rng, records);
  }
}

net::SimTime ExperimentRunner::run(cellular::Device& device, int carrier_index,
                                   net::SimTime start, net::Rng& rng,
                                   net::DeviceState& device_state,
                                   RecordStore& records) {
  experiment_metrics().experiments.inc();
  const cellular::DeviceSnapshot snapshot =
      device.begin_experiment(start, rng, device_state);

  ExperimentContext context;
  context.device_id = device.id();
  context.carrier_index = carrier_index;
  context.started = start;
  context.radio = snapshot.radio;
  context.location = snapshot.location;
  context.gateway_index = snapshot.gateway_index;
  context.public_ip = snapshot.public_ip;
  context.configured_resolver = snapshot.configured_resolver;
  records.add_experiment(context);

  net::SimTime now = start;
  const net::Ipv4Addr google = publicdns::kGoogleVip;
  const net::Ipv4Addr opendns = publicdns::kOpenDnsVip;

  // 1. Bootstrap ping: pays the RRC promotion so the measurements that
  //    follow see the radio in its high-power state (§3.2).
  probe_target(device, ProbeTargetKind::kBootstrap, ResolverKind::kLocal,
               google, now, rng, records);

  // 2. Domain resolutions + replica probes for all three resolver kinds.
  measure_domains(device, ResolverKind::kLocal, snapshot.configured_resolver,
                  now, rng, device_state, records);
  measure_domains(device, ResolverKind::kGoogle, google, now, rng,
                  device_state, records);
  measure_domains(device, ResolverKind::kOpenDns, opendns, now, rng,
                  device_state, records);

  // 3. Resolver identification (+ external resolver probes).
  identify_resolver(device, ResolverKind::kLocal, snapshot.configured_resolver,
                    now, rng, device_state, records);
  identify_resolver(device, ResolverKind::kGoogle, google, now, rng,
                    device_state, records);
  identify_resolver(device, ResolverKind::kOpenDns, opendns, now, rng,
                    device_state, records);

  // 4. Probes to the configured resolver and the public VIPs (Figs. 4, 11).
  probe_target(device, ProbeTargetKind::kClientResolver, ResolverKind::kLocal,
               snapshot.configured_resolver, now, rng, records);
  probe_target(device, ProbeTargetKind::kPublicVip, ResolverKind::kGoogle,
               google, now, rng, records);
  probe_target(device, ProbeTargetKind::kPublicVip, ResolverKind::kOpenDns,
               opendns, now, rng, records);

  return now;
}

}  // namespace curtain::measure
