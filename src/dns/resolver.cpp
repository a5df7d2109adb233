// lint-hot-path (every recursive resolution; see dns/resolver.h)
#include "dns/resolver.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/contract.h"
#include "util/smallvec.h"

namespace curtain::dns {
namespace {

constexpr size_t kMaxCnameChase = 8;
constexpr size_t kMaxReferrals = 16;
// Cost charged for a query that gets no reply before the client retries.
constexpr double kTimeoutMs = 1000.0;

struct ResolverMetrics {
  obs::Counter& queries = obs::metrics().counter(
      "curtain_dns_queries_total", "resolutions started by recursive resolvers");
  obs::Counter& upstream = obs::metrics().counter(
      "curtain_dns_upstream_queries_total",
      "queries sent to upstream authoritative servers");
  obs::Counter& timeouts = obs::metrics().counter(
      "curtain_dns_upstream_timeouts_total",
      "upstream queries charged the timeout cost (unknown/unreachable server)");
  obs::Counter& nxdomain = obs::metrics().counter(
      "curtain_dns_nxdomain_total", "resolutions ending NXDOMAIN");
  obs::Counter& servfail = obs::metrics().counter(
      "curtain_dns_servfail_total", "resolutions ending SERVFAIL");
  obs::Counter& warm_hits = obs::metrics().counter(
      "curtain_dns_warm_hits_total",
      "cache misses converted to hits by the background-load model");
  obs::Histogram& upstream_ms = obs::metrics().histogram(
      "curtain_dns_recursion_ms", obs::Histogram::latency_ms_buckets(),
      "upstream time spent per recursive resolution");
};

ResolverMetrics& resolver_metrics() {
  // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h).
  static thread_local obs::SheafLocal<ResolverMetrics> metrics;
  return metrics.get();
}

/// Run indices of one response section; responses hold a handful.
using RunRefs = util::SmallVec<uint32_t, 8>;

bool run_key_less(const Section& section, uint32_t a, uint32_t b) {
  const ResourceRecord& x = section.stored(a, 0);
  const ResourceRecord& y = section.stored(b, 0);
  if (x.name < y.name) return true;
  if (y.name < x.name) return false;
  return x.type() < y.type();
}

/// Inserts `section`'s runs into `cache` as one entry per (name, type);
/// SOA runs are skipped when `skip_soa`. A stable sort of the runs groups
/// each (name, type)'s runs into one entry with section order kept inside
/// it (every record of a run shares the run's name and type). The order
/// across entries is not result-visible: nothing in the cache depends on
/// insertion order.
void insert_rrsets(Cache& cache, const Section& section, bool skip_soa,
                   net::SimTime now, uint32_t scope) {
  RunRefs refs;
  for (uint32_t i = 0; i < section.run_count(); ++i) {
    if (skip_soa && section.stored(i, 0).type() == RRType::kSOA) continue;
    refs.push_back(i);
  }
  uint32_t* data = refs.data();
  const size_t n = refs.size();
  for (size_t i = 1; i < n; ++i) {  // stable insertion sort
    const uint32_t run = data[i];
    size_t j = i;
    for (; j > 0 && run_key_less(section, run, data[j - 1]); --j) {
      data[j] = data[j - 1];
    }
    data[j] = run;
  }
  for (size_t begin = 0; begin < n;) {
    size_t end = begin + 1;
    while (end < n && !run_key_less(section, data[begin], data[end])) ++end;
    Section rrset;
    for (size_t k = begin; k < end; ++k) rrset.append_run(section, data[k]);
    const ResourceRecord& head = section.stored(data[begin], 0);
    cache.insert(head.name, head.type(), std::move(rrset), now, scope);
    begin = end;
  }
}

}  // namespace

std::vector<net::Ipv4Addr> ResolutionResult::addresses() const {
  std::vector<net::Ipv4Addr> out;
  for (const RecordView rr : answers) {
    if (const auto* a = std::get_if<ARecord>(&rr.rdata)) out.push_back(a->address);
  }
  return out;
}

RecursiveResolver::RecursiveResolver(
    std::string name,  // lint: hot-alloc (runs once at World build)
    net::NodeId node, net::Ipv4Addr ip, net::Topology* topology,
    const ServerRegistry* registry, net::Ipv4Addr root_ip)
    : name_(std::move(name)),
      node_(node),
      ip_(ip),
      topology_(topology),
      registry_(registry),
      root_ip_(root_ip),
      states_(topology->issue_device_slot()) {}

ResolutionResult RecursiveResolver::resolve(const DnsName& name, RRType type,
                                            net::SimTime now, net::Rng& rng,
                                            net::DeviceState& device,
                                            net::Ipv4Addr ecs_client) {
  QueryState& state = states_.get(device);
  ResolutionResult result;
  result.rcode = Rcode::kNoError;
  if (!state.warming) resolver_metrics().queries.inc();
  obs::ScopedSpan span("recursion", now.millis());
  const uint32_t scope = (ecs_enabled_ && !ecs_client.is_unspecified())
                             ? ecs_client.slash24().value()
                             : 0;
  DnsName qname = name;
  bool resolved = false;
  for (size_t chase = 0; chase <= kMaxCnameChase && !resolved; ++chase) {
    resolved =
        !resolve_step(state, qname, type, now, rng, device, ecs_client, scope,
                      result);
  }
  if (!resolved) result.rcode = Rcode::kServFail;  // CNAME chain too long
  span.finish(now.millis() + result.upstream_ms);
  if (!state.warming) {
    resolver_metrics().upstream_ms.observe(result.upstream_ms);
    if (result.rcode == Rcode::kNxDomain) {
      resolver_metrics().nxdomain.inc();
    } else if (result.rcode == Rcode::kServFail) {
      resolver_metrics().servfail.inc();
    }
  }
  return result;
}

bool RecursiveResolver::resolve_step(QueryState& state, DnsName& qname,
                                     RRType type, net::SimTime now,
                                     net::Rng& rng, net::DeviceState& device,
                                     net::Ipv4Addr ecs_client, uint32_t scope,
                                     ResolutionResult& result) {
  // Terminal rrset cached (within this client's subnet partition)?
  if (auto cached = state.cache.lookup(qname, type, now, scope)) {
    if (cached->negative()) {
      result.rcode = Rcode::kNxDomain;
      return false;
    }
    cached->append_aged(result.answers);
    return false;
  }
  // Cached CNAME link?
  if (type != RRType::kCNAME) {
    if (auto cached = state.cache.lookup(qname, RRType::kCNAME, now, scope);
        cached && !cached->negative() && !cached->records().empty()) {
      result.answers.append_run(cached->records(), 0, cached->elapsed_s(), 1);
      qname = std::get<CnameRecord>(cached->records().front().rdata).target;
      return true;
    }
  }
  // Background-load model: subscribers may have refreshed this name
  // already, in which case our query is a hit at zero charged latency.
  // Applies only to subnet-independent data — an ECS-scoped answer is
  // specific to this client's subnet, which background users don't share.
  if (scope == 0 && !state.warming &&
      bg_interarrival_s_ > 0.0 &&
      (!warm_eligible_ || warm_eligible_(qname))) {
    state.warming = true;
    // The shadow recursion models work other subscribers already did; its
    // spans are not part of this client's resolution timeline.
    obs::Tracer::instance().pause();
    ResolutionResult shadow = resolve(qname, type, now, rng, device);
    obs::Tracer::instance().resume();
    state.warming = false;
    // An entry with TTL T that background users re-fetch every I seconds
    // is fresh a T/(T+I) fraction of the time.
    // NXDOMAIN / empty answers: the 300 s negative-cache TTL.
    const uint32_t ttl = std::min<uint32_t>(300, shadow.answers.min_ttl());
    if (!rng.bernoulli(ttl / (ttl + bg_interarrival_s_))) {
      // Cold after all: the client pays the recursion the shadow ran.
      result.upstream_ms += shadow.upstream_ms;
      result.upstream_queries += shadow.upstream_queries;
      result.from_cache = false;
    } else {
      resolver_metrics().warm_hits.inc();
    }
    result.rcode = shadow.rcode;
    result.answers.append(std::move(shadow.answers));
    return false;  // the shadow resolution followed the whole chain
  }
  result.from_cache = false;
  return iterate(state, qname, type, now, rng, device, ecs_client, scope,
                 result);
}

net::Ipv4Addr RecursiveResolver::best_server_for(QueryState& state,
                                                 const DnsName& qname,
                                                 net::SimTime now) {
  Cache& cache = state.cache;
  // Walk qname, qname's parent, ... looking for a cached NS whose glue we
  // also have. The root primes the walk when nothing deeper is known. A
  // static name climbs its table's ancestor chain; only a dynamic name (a
  // probe or PTR name) builds its parents, until one is static or root.
  DnsName dynamic;  // the current zone while the walk is on dynamic names
  for (const DnsName* zone = &qname;;) {
    // Borrowed views are safe across the nested glue lookup: lookups never
    // move entries (dns/cache.h), so the NS entry stays put.
    if (auto ns_set = cache.lookup(*zone, RRType::kNS, now);
        ns_set && !ns_set->negative()) {
      for (const RecordView rr : ns_set->records()) {
        const auto& ns_name = std::get<NsRecord>(rr.rdata).nameserver;
        if (auto glue = cache.lookup(ns_name, RRType::kA, now);
            glue && !glue->negative() && !glue->records().empty()) {
          return std::get<ARecord>(glue->records().front().rdata).address;
        }
      }
    }
    if (zone->is_root()) return root_ip_;
    if (const DnsName* up = zone->static_parent()) {
      zone = up;
    } else {
      dynamic = zone->parent();
      zone = &dynamic;
    }
  }
}

std::optional<Message> RecursiveResolver::query_server(
    QueryState& state, net::Ipv4Addr server_ip, const DnsName& qname,
    RRType type, net::SimTime now, net::Rng& rng, net::DeviceState& device,
    net::Ipv4Addr ecs_client, ResolutionResult& result) {
  ++result.upstream_queries;
  resolver_metrics().upstream.inc();
  obs::ScopedSpan span("upstream_query", now.millis() + result.upstream_ms);
  DnsServer* server = registry_->find(server_ip);
  if (server == nullptr) {
    result.upstream_ms += kTimeoutMs;
    resolver_metrics().timeouts.inc();
    span.finish(now.millis() + result.upstream_ms);
    return std::nullopt;
  }
  const auto rtt = topology_->transport_rtt_ms(node_, server->node(), rng);
  if (!rtt) {
    result.upstream_ms += kTimeoutMs;
    resolver_metrics().timeouts.inc();
    span.finish(now.millis() + result.upstream_ms);
    return std::nullopt;
  }
  Message query = Message::query(state.next_query_id++, qname, type);
  if (ecs_enabled_ && !ecs_client.is_unspecified()) {
    // Masked here exactly as the wire codec would, so the authority sees
    // the same source-prefix address on the typed path.
    const net::Prefix subnet(ecs_client.slash24(), ecs_prefix_len_);
    query.ecs = EdnsClientSubnet{subnet.address(), ecs_prefix_len_, 0};
  }
  ServedResponse served = server->serve(query, ip_, now, rng, device);
  result.upstream_ms += *rtt + served.server_side_ms;
  span.finish(now.millis() + result.upstream_ms);
  if (served.message.header.id != query.header.id) return std::nullopt;
  return std::move(served.message);
}

void RecursiveResolver::cache_response_sections(QueryState& state,
                                                const Message& response,
                                                net::SimTime now,
                                                uint32_t answer_scope) {
  // Tailored answers are valid only for this client's subnet; referral
  // metadata (NS, glue) is subnet-independent. SOA is negative-caching
  // metadata, read by iterate() instead.
  Cache& cache = state.cache;
  insert_rrsets(cache, response.answers, /*skip_soa=*/false, now,
                answer_scope);
  if (response.additionals.empty()) {
    insert_rrsets(cache, response.authorities, /*skip_soa=*/true, now, 0);
    return;
  }
  Section metadata = response.authorities;
  metadata.append(response.additionals);
  insert_rrsets(cache, metadata, /*skip_soa=*/true, now, /*scope=*/0);
}

bool RecursiveResolver::iterate(QueryState& state, DnsName& qname,
                                RRType type, net::SimTime now, net::Rng& rng,
                                net::DeviceState& device,
                                net::Ipv4Addr ecs_client, uint32_t scope,
                                ResolutionResult& result) {
  net::Ipv4Addr server_ip = best_server_for(state, qname, now);
  for (size_t step = 0; step < kMaxReferrals; ++step) {
    auto response = query_server(state, server_ip, qname, type, now, rng,
                                 device, ecs_client, result);
    if (!response) {
      result.rcode = Rcode::kServFail;
      return false;
    }
    cache_response_sections(state, *response, now, scope);

    if (!response->answers.empty()) {
      // Either the terminal rrset, a CNAME link, or a mix ending in one.
      const DnsName* continue_with = nullptr;
      for (const RecordView rr : response->answers) {
        if (rr.type() == RRType::kCNAME && type != RRType::kCNAME) {
          continue_with = &std::get<CnameRecord>(rr.rdata).target;
        }
        if (rr.type() == type) continue_with = nullptr;
      }
      // Read the target before the answers (and any records they own)
      // move into the result.
      if (continue_with != nullptr) qname = *continue_with;
      result.answers.append(std::move(response->answers));
      return continue_with != nullptr;
    }

    if (response->header.rcode == Rcode::kNxDomain) {
      uint32_t neg_ttl = 300;
      for (const RecordView rr : response->authorities) {
        if (const auto* soa = std::get_if<SoaRecord>(&rr.rdata)) {
          neg_ttl = std::min(rr.ttl, soa->minimum);
        }
      }
      state.cache.insert_negative(qname, type, neg_ttl, now, scope);
      result.rcode = Rcode::kNxDomain;
      return false;
    }

    // Referral: follow the first NS with glue.
    net::Ipv4Addr next{};
    for (const RecordView ns_rr : response->authorities) {
      const auto* ns = std::get_if<NsRecord>(&ns_rr.rdata);
      if (ns == nullptr) continue;
      for (const RecordView add_rr : response->additionals) {
        const auto* a = std::get_if<ARecord>(&add_rr.rdata);
        if (a != nullptr && add_rr.name == ns->nameserver) {
          next = a->address;
          break;
        }
      }
      if (!next.is_unspecified()) break;
    }
    if (next.is_unspecified() || next == server_ip) {
      // Either NODATA (authority carries a SOA — a fine, cacheable "no
      // such data") or a referral we cannot make progress on (glueless,
      // or pointing back at the same server): the latter is a lame
      // delegation and surfaces as SERVFAIL, like production resolvers.
      bool lame_referral = false;
      for (const RecordView rr : response->authorities) {
        if (rr.type() == RRType::kNS) lame_referral = true;
      }
      result.rcode =
          lame_referral ? Rcode::kServFail : response->header.rcode;
      return false;
    }
    server_ip = next;
  }
  result.rcode = Rcode::kServFail;
  return false;
}

ServedResponse RecursiveResolver::serve(const Message& query,
                                        net::Ipv4Addr source_ip,
                                        net::SimTime now, net::Rng& rng,
                                        net::DeviceState& device) {
  CURTAIN_DCHECK(query.question.has_value()) << "query carries no question";
  const Question& q = *query.question;
  // With ECS enabled, the stub's source address seeds the client subnet
  // we disclose upstream.
  ResolutionResult result =
      resolve(q.name, q.type, now, rng, device,
              ecs_enabled_ ? source_ip : net::Ipv4Addr{});
  ServedResponse served;
  served.message = query.make_response();
  served.message.header.ra = true;
  served.message.header.rcode = result.rcode;
  served.message.answers = std::move(result.answers);
  served.server_side_ms = result.upstream_ms;
  return served;
}

}  // namespace curtain::dns
