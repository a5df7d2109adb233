// Public DNS services: Google Public DNS and OpenDNS.
//
// Modeled after what the paper documents (§6.1): one anycast VIP fronting
// geographically distributed sites, with Google operating 30 distinct /24
// resolver clusters worldwide. Anycast ingress follows the client's egress
// location, but tunneling makes the mapping unstable — clients see several
// of the service's /24s over time (Fig. 12). Being outside the cellular
// network, these resolvers are farther than the carrier's own (Figs. 11,
// 13), yet their sites are *measurable* by CDNs, so replica mapping for
// them is latency-aware — the crux of the paper's headline comparison.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "dns/resolver.h"
#include "dns/server.h"
#include "net/ip_allocator.h"

namespace curtain::publicdns {

/// The anycast VIPs clients configure: Google Public DNS and OpenDNS.
inline constexpr net::Ipv4Addr kGoogleVip{8, 8, 8, 8};
inline constexpr net::Ipv4Addr kOpenDnsVip{208, 67, 222, 222};

struct PublicDnsSite {
  std::string metro;
  net::GeoPoint location;
  net::Prefix prefix;  ///< the site's /24
  std::vector<std::unique_ptr<dns::RecursiveResolver>> instances;
};

struct PublicDnsBuildContext {
  net::Topology* topology = nullptr;
  dns::ServerRegistry* registry = nullptr;
  net::IpAllocator* allocator = nullptr;
  std::function<net::NodeId(const net::GeoPoint&)> nearest_backbone;
  net::Ipv4Addr root_dns_ip;
  /// The node where a client source address enters the Internet (its
  /// egress: a subscriber's carrier gateway, else the node owning the
  /// address), or kInvalidNode if unknown; drives anycast ingress
  /// selection. The service ranks its sites by distance from each egress
  /// the first time any worker meets it and keeps that ranking for the
  /// World's life, so the answer must depend on the address alone and
  /// must not change once the topology is frozen.
  std::function<net::NodeId(net::Ipv4Addr)> locate_source;
  /// Names kept warm by background load; empty = all names.
  std::function<bool(const dns::DnsName&)> warm_eligible;
  /// Send EDNS client-subnet to authoritative servers (RFC 7871). Google
  /// deployed this for opted-in CDNs; enabling it lets CDNs map by the
  /// *client's* subnet instead of the resolver's site.
  bool ecs_enabled = false;
  uint64_t build_seed = 0;
};

class PublicDnsService : public dns::DnsServer {
 public:
  /// Builds `num_sites` sites on the world metro list with
  /// `instances_per_site` resolvers each, all answering on `vip`.
  PublicDnsService(std::string name, net::Ipv4Addr vip, int num_sites,
                   int instances_per_site, const PublicDnsBuildContext& context);
  ~PublicDnsService() override;

  const std::string& service_name() const { return name_; }
  const std::vector<PublicDnsSite>& sites() const { return sites_; }

  /// Sizes the ingress table, one slot per topology node, each empty until
  /// the first query from that egress ranks it (see route_site()). Called
  /// once the topology is frozen, before the first query.
  void freeze();

  // DnsServer:
  dns::ServedResponse serve(const dns::Message& query,
                            net::Ipv4Addr source_ip, net::SimTime now,
                            net::Rng& rng, net::DeviceState& device) override;
  net::NodeId node() const override;
  net::Ipv4Addr ip() const override { return vip_; }
  /// Anycast: the instance node a packet from `source` lands on at `now`
  /// (deterministic part of the routing; used for pings to the VIP).
  net::NodeId node_for(net::Ipv4Addr source, net::SimTime now) const override;

 private:
  /// Anycast routing: site index for a source at a time. Combines
  /// proximity to the source's egress with tunneling-induced instability.
  int route_site(net::Ipv4Addr source_ip, net::SimTime now) const;

  /// The sites nearest `egress`, closest first (ties to the lower index),
  /// packed in one word: the count in the low byte, then candidate c's
  /// site index in byte c + 1. Ranked by the first query from `egress` on
  /// any thread; two workers that race rank the same sites and store the
  /// same word, so a relaxed atomic suffices.
  uint64_t ingress_candidates(net::NodeId egress) const;

  std::string name_;
  net::Ipv4Addr vip_;
  const net::Topology* topology_ = nullptr;
  std::function<net::NodeId(net::Ipv4Addr)> locate_source_;
  uint64_t seed_ = 0;
  std::vector<PublicDnsSite> sites_;
  /// One slot per topology node: its packed candidates, or 0 until ranked
  /// (a ranked word holds a count of at least 1). Sized by freeze().
  std::unique_ptr<std::atomic<uint64_t>[]> ingress_;
};

}  // namespace curtain::publicdns
