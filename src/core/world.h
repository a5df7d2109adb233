// World: the complete simulated environment of the study.
//
// Assembles every substrate into one consistent universe:
//   * an Internet backbone over 30 world metros,
//   * the DNS delegation hierarchy (root, TLDs),
//   * three CDN providers carrying the nine study domains,
//   * Google Public DNS (30 sites) and OpenDNS (20 sites),
//   * the six study carriers with their firewalled zones and LDNS
//     architectures,
//   * the research ADNS used for resolver identification, and
//   * the wired university vantage point.
// Construction ends by freezing the world's static namespace into one
// dns::NameTable and binding every zone and CDN to it (DESIGN.md §21),
// then freezing the topology (DESIGN.md §18): no node or link may be
// added after. After construction the world's data is fixed; campaigns
// only thread RNG and virtual time through it, and the values derived
// from it (route trees, ingress rankings, nearest clusters) are filled
// once by whichever worker needs one first and shared by all.
#pragma once

#include <map>
#include <memory>

#include "cdn/cdn.h"
#include "cdn/domains.h"
#include "cellular/carrier.h"
#include "core/scenario.h"
#include "dns/hierarchy.h"
#include "measure/resolver_ident.h"
#include "util/contract.h"
#include "publicdns/public_dns.h"

namespace curtain::core {

class World {
 public:
  /// Builds the world a Scenario describes (only the seed and world-shape
  /// fields are read; scale/shards belong to execution).
  explicit World(Scenario config = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  net::Topology& topology() { return topology_; }
  const net::Topology& topology() const { return topology_; }
  dns::ServerRegistry& registry() { return registry_; }
  const dns::ServerRegistry& registry() const { return registry_; }
  dns::DnsHierarchy& hierarchy() { return *hierarchy_; }

  net::NodeId nearest_backbone(const net::GeoPoint& location) const;

  const std::vector<std::unique_ptr<cellular::CellularNetwork>>& carriers()
      const {
    return carriers_;
  }
  cellular::CellularNetwork& carrier(size_t index) {
    CURTAIN_CHECK(index < carriers_.size())
        << "carrier " << index << " of " << carriers_.size();
    return *carriers_[index];
  }

  publicdns::PublicDnsService& google_dns() { return *google_; }
  publicdns::PublicDnsService& open_dns() { return *opendns_; }
  cdn::CdnProvider& cdn(const std::string& name) { return *cdns_.at(name); }
  /// Ordered by provider name so tools that print or export the CDN set
  /// walk it in a reproducible order.
  const std::map<std::string, std::unique_ptr<cdn::CdnProvider>>& cdns()
      const {
    return cdns_;
  }

  /// Every static DNS name of the world, numbered (dns/name_table.h).
  const dns::NameTable& names() const { return names_; }
  const dns::DnsName& research_apex() const { return research_apex_; }
  net::NodeId vantage_node() const { return vantage_node_; }
  net::Ipv4Addr vantage_ip() const { return vantage_ip_; }
  net::Ipv4Addr root_dns_ip() const { return hierarchy_->root_ip(); }

  const Scenario& config() const { return config_; }

 private:
  void build_backbone();
  void build_vantage();
  void build_hierarchy_and_research_zone();
  void build_cdns();
  void build_public_dns();
  void build_carriers();
  void register_cdn_hints();
  void intern_names();
  void freeze_topology();

  dns::HostFactory host_factory();

  Scenario config_;
  /// First member, so it outlives every handle the members below hold.
  dns::NameTable names_;
  net::Topology topology_;
  dns::ServerRegistry registry_;
  std::unique_ptr<net::IpAllocator> allocator_;
  std::vector<net::NodeId> backbone_nodes_;
  std::unique_ptr<dns::DnsHierarchy> hierarchy_;
  dns::DnsName research_apex_;
  net::NodeId vantage_node_ = net::kInvalidNode;
  net::Ipv4Addr vantage_ip_;
  std::map<std::string, std::unique_ptr<cdn::CdnProvider>> cdns_;
  std::unique_ptr<publicdns::PublicDnsService> google_;
  std::unique_ptr<publicdns::PublicDnsService> opendns_;
  std::vector<std::unique_ptr<cellular::CellularNetwork>> carriers_;
};

}  // namespace curtain::core
