// Recursive (caching, iterative-resolution) DNS resolver.
//
// This is the component deployed as the *external-facing* half of every
// cellular LDNS architecture and at every public-DNS site. It walks the
// delegation hierarchy (root → TLD → zone ADNS), follows cross-zone CNAME
// chains (CDN indirection), caches positive and negative answers, and
// accounts the wall-clock cost of its upstream round trips so clients
// observe realistic resolution times (paper Figs. 5-7, 13).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dns/cache.h"
#include "dns/message.h"
#include "dns/server.h"
#include "net/device_state.h"

namespace curtain::dns {

struct ResolutionResult {
  Rcode rcode = Rcode::kServFail;
  /// Full answer chain, CNAMEs first, terminal rrset last; mostly borrowed
  /// runs of the World's rrsets (dns/rrset.h).
  Section answers;
  /// Latency the resolver spent querying upstream servers (0 on cache hit).
  double upstream_ms = 0.0;
  int upstream_queries = 0;
  /// True when every link of the chain came from cache.
  bool from_cache = true;

  std::vector<net::Ipv4Addr> addresses() const;
};

class RecursiveResolver : public DnsServer {
 public:
  /// `root_ip` is the priming address of the root server; `registry` and
  /// `topology` are borrowed and must outlive the resolver, which takes
  /// its device-state slot from `topology`.
  RecursiveResolver(std::string name, net::NodeId node, net::Ipv4Addr ip,
                    net::Topology* topology, const ServerRegistry* registry,
                    net::Ipv4Addr root_ip);

  /// Resolves (name, type) for `device`, consulting its cache and
  /// iterating as needed. When ECS is enabled and `ecs_client` is a real
  /// address, upstream queries carry the client's subnet and tailored
  /// answers are cached per subnet (RFC 7871).
  ResolutionResult resolve(const DnsName& name, RRType type, net::SimTime now,
                           net::Rng& rng, net::DeviceState& device,
                           net::Ipv4Addr ecs_client = {});

  /// Turns on EDNS client-subnet towards authoritative servers (what
  /// Google Public DNS deployed for opted-in CDNs; the paper-era cell
  /// LDNS did not).
  void enable_ecs(uint8_t source_prefix_len = 24) {
    ecs_enabled_ = true;
    ecs_prefix_len_ = source_prefix_len;
  }
  bool ecs_enabled() const { return ecs_enabled_; }

  // DnsServer:
  ServedResponse serve(const Message& query, net::Ipv4Addr source_ip,
                       net::SimTime now, net::Rng& rng,
                       net::DeviceState& device) override;
  net::NodeId node() const override { return node_; }
  net::Ipv4Addr ip() const override { return ip_; }

  const std::string& name() const { return name_; }

  /// Background-load model. Production resolvers serve whole subscriber
  /// populations, so a popular name is usually still cached when our
  /// measurement query arrives even though the fleet alone could never
  /// keep it warm. Popular names are re-fetched by the subscriber
  /// population on average every `mean_interarrival_s`, so a measurement
  /// query finds the entry warm with probability TTL / (TTL +
  /// interarrival): the recursion then runs at zero observable cost (the
  /// fetch "already happened" for another subscriber). Short CDN TTLs miss
  /// more (Fig. 7's ~20% tail, and the bench/ablation_cdn_ttl sweep).
  /// `eligible` limits warming to names background users actually query
  /// (measurement-unique names are never warm); empty = all names.
  void set_background_load(double mean_interarrival_s,
                           std::function<bool(const DnsName&)> eligible = {}) {
    bg_interarrival_s_ = mean_interarrival_s;
    warm_eligible_ = std::move(eligible);
  }

 private:
  /// Mutable query-time state, one copy per device, created cold on the
  /// device's first query and freed with its net::DeviceState. Each device
  /// thus sees the resolver as if it were its only client, whichever
  /// cohort shard runs it; the population-level cache warmth devices would
  /// share is carried by the background-load model instead (see
  /// set_background_load). resolve() looks it up once and passes it down
  /// the helpers below.
  struct QueryState {
    Cache cache;
    uint16_t next_query_id = 1;
    bool warming = false;  ///< reentrancy guard for the warm-hit path
  };

  /// One step: resolve `qname` to either a terminal rrset or a CNAME.
  /// Appends to `result.answers`; when chasing should continue, sets
  /// `qname` to the CNAME target and returns true. `scope` is the ECS
  /// cache partition (0 = global).
  bool resolve_step(QueryState& state, DnsName& qname, RRType type,
                    net::SimTime now, net::Rng& rng, net::DeviceState& device,
                    net::Ipv4Addr ecs_client, uint32_t scope,
                    ResolutionResult& result);

  /// Iterative walk for one (qname, type); fills result from the network.
  /// Sets `qname` to the CNAME continuation target and returns true, if
  /// there is one.
  bool iterate(QueryState& state, DnsName& qname, RRType type,
               net::SimTime now, net::Rng& rng, net::DeviceState& device,
               net::Ipv4Addr ecs_client, uint32_t scope,
               ResolutionResult& result);

  /// Deepest cached delegation for `qname` (falls back to the root).
  net::Ipv4Addr best_server_for(QueryState& state, const DnsName& qname,
                                net::SimTime now);

  /// Sends one query to the server at `server_ip`, accounting RTT into
  /// `result`. nullopt if the server is unknown or unreachable, or if the
  /// reply does not echo the query's transaction id.
  std::optional<Message> query_server(QueryState& state,
                                      net::Ipv4Addr server_ip,
                                      const DnsName& qname, RRType type,
                                      net::SimTime now, net::Rng& rng,
                                      net::DeviceState& device,
                                      net::Ipv4Addr ecs_client,
                                      ResolutionResult& result);

  /// Caches every rrset in a response, grouped by (name, type). Answer
  /// rrsets go into the `answer_scope` partition (ECS-tailored data);
  /// referral metadata is cached globally. Shared rrsets are cached as
  /// borrowed runs.
  void cache_response_sections(QueryState& state, const Message& response,
                               net::SimTime now, uint32_t answer_scope);

  std::string name_;
  net::NodeId node_;
  net::Ipv4Addr ip_;
  const net::Topology* topology_;
  const ServerRegistry* registry_;
  net::Ipv4Addr root_ip_;
  net::DeviceLocal<QueryState> states_;
  double bg_interarrival_s_ = 0.0;
  bool ecs_enabled_ = false;
  uint8_t ecs_prefix_len_ = 24;
  std::function<bool(const DnsName&)> warm_eligible_;
};

}  // namespace curtain::dns
