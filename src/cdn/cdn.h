// CDN simulator: replica clusters plus a resolver-aware authoritative DNS.
//
// Replica selection works the way the paper describes production CDNs
// working (§2.2, §5.1):
//   * the ADNS sees only the *recursive resolver's* address, never the
//     client's;
//   * resolvers are aggregated by /24 — all resolvers in one /24 get the
//     same replica cluster (Fig. 10's cosine-similarity structure);
//   * for /24s the CDN can measure (public DNS sites, DMZ-hosted carrier
//     resolvers) the mapping is latency-aware; for opaque cellular /24s
//     (§4.4) the CDN has nothing to measure and the assignment is
//     effectively arbitrary within the country — the root cause of the
//     replica penalties in Fig. 2;
//   * answers rotate through the cluster with short TTLs.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/hierarchy.h"
#include "net/ip_allocator.h"

namespace curtain::cdn {

struct ReplicaCluster {
  int index = 0;
  std::string metro;
  net::GeoPoint location;
  net::Prefix prefix;  ///< replicas of a cluster share one /24
  std::vector<net::NodeId> replica_nodes;
  std::vector<net::Ipv4Addr> replica_ips;
  std::string country;  ///< "US" or "KR" (mapping candidate pools)
};

struct CdnBuildContext {
  net::Topology* topology = nullptr;
  dns::ServerRegistry* registry = nullptr;
  net::IpAllocator* allocator = nullptr;
  dns::DnsHierarchy* hierarchy = nullptr;
  std::function<net::NodeId(const net::GeoPoint&)> nearest_backbone;
  uint64_t build_seed = 0;
};

class CdnProvider {
 public:
  /// Builds clusters in every US and KR metro and registers the provider's
  /// ADNS (for `zone_apex`, e.g. "curtaincdn.net") with the hierarchy.
  CdnProvider(std::string name, dns::DnsName zone_apex,
              const CdnBuildContext& context, uint32_t answer_ttl_s = 30);

  const std::string& name() const { return provider_name_; }
  const dns::DnsName& zone_apex() const { return zone_apex_; }

  /// Registers a customer hostname; returns the edge name the customer's
  /// origin zone should CNAME to (<label>.<zone_apex>). Builds every
  /// answer the ADNS can give for it, one immutable rrset per (cluster,
  /// rotation start), which responses borrow (dns/rrset.h).
  dns::DnsName add_customer(const std::string& label);

  /// Tells the mapper where a resolver /24 *measurably* is. Registered for
  /// public-DNS sites and externally reachable (DMZ) carrier resolvers;
  /// opaque cellular prefixes never get hints.
  void add_prefix_hint(net::Prefix slash24, const net::GeoPoint& location,
                       const std::string& country);

  /// Registers only the WHOIS country of a /24 (always available even for
  /// opaque cellular prefixes). Without a full hint, mapping falls back to
  /// a sticky per-/24 hash over this country's clusters, or over every
  /// cluster if the provider has none in that country; a /24 with no
  /// registered country counts as US.
  void add_prefix_country(net::Prefix slash24, const std::string& country);

  /// The cluster the mapper assigns to `resolver_ip`'s /24. A hinted /24's
  /// nearest cluster is scanned once and memoized in its hint.
  const ReplicaCluster& cluster_for_resolver(net::Ipv4Addr resolver_ip) const;

  const std::vector<ReplicaCluster>& clusters() const { return clusters_; }

  /// Cluster containing `replica_ip`; nullptr if not one of ours.
  const ReplicaCluster* cluster_of_replica(net::Ipv4Addr replica_ip) const;

  /// Lowest possible client RTT estimate support: cluster nearest to a
  /// location (what a perfectly informed mapping would pick).
  const ReplicaCluster& nearest_cluster(const net::GeoPoint& location,
                                        const std::string& country) const;

  /// Adds the zone apex and every edge name to `names`.
  void collect_names(dns::NameTable& names) const;
  /// Swaps the apex and the answers' names for `names`' handles, so the
  /// answers the ADNS lends out carry static names. Before the first
  /// query.
  void intern_names(const dns::NameTable& names);

 private:
  /// The rrset the ADNS answers `question` with; nullptr for a name or
  /// type the provider does not serve.
  const dns::Rrset* answer_query(
      const dns::Question& question, net::Ipv4Addr resolver_ip,
      const std::optional<dns::EdnsClientSubnet>& ecs, net::SimTime now);

  void build_clusters(const CdnBuildContext& context);

  std::string provider_name_;
  dns::DnsName zone_apex_;
  uint64_t seed_ = 0;
  uint32_t answer_ttl_s_;
  std::vector<ReplicaCluster> clusters_;
  /// Cluster indices by country, in cluster order (opaque-prefix pools).
  std::unordered_map<std::string, std::vector<int>> clusters_by_country_;
  std::vector<int> all_clusters_;  ///< pool for a country with no cluster
  std::unordered_map<uint32_t, int> cluster_by_replica_slash24_;
  struct Hint {
    net::GeoPoint location;
    std::string country;
    /// nearest_cluster(location, country)'s index, or -1 until a lookup
    /// scans for it. Campaign workers share the provider: whichever
    /// thread scans first stores the index, and a race only repeats the
    /// same scan, so a relaxed atomic suffices.
    mutable std::atomic<int> nearest{-1};
  };
  std::unordered_map<uint32_t, Hint> prefix_hints_;  ///< /24 base -> hint
  std::unordered_map<uint32_t, std::string> prefix_countries_;
  /// Customer label -> its answers: the rrset for cluster c rotated to
  /// start at replica r is at c * kReplicasPerCluster + r. Keyed with a
  /// transparent comparator so a query looks its label up as a view.
  std::map<std::string, std::vector<dns::Rrset>, std::less<>> customers_;
  dns::AuthoritativeServer* adns_ = nullptr;  ///< owned by the hierarchy
};

}  // namespace curtain::cdn
