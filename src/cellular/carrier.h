// CellularNetwork: one carrier's runtime presence in a world.
//
// Builds the carrier's firewalled zone — regions, egress gateways with NAT
// address pools, client-facing resolvers (anycast VIPs, pool members or
// tiered fronts) and external-facing recursive resolvers — and implements
// the client→external pairing policy whose (in)consistency the paper
// measures (§4.1, §4.5). The DNS data path exchanges typed dns::Messages
// (dns/server.h): a device's stub query hits a ClientFacingResolver, which
// forwards to the selected external RecursiveResolver, which iterates the
// public hierarchy; the external resolver's address is what CDN and
// research ADNSes observe.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cellular/carrier_profile.h"
#include "dns/resolver.h"
#include "dns/server.h"
#include "net/device_state.h"
#include "net/ip_allocator.h"
#include "net/ipv4.h"
#include "net/topology.h"

namespace curtain::cellular {

class CellularNetwork;

/// A client-facing resolver address. For anycast VIPs one instance exists
/// per region and `node_for` picks by the querying subscriber's gateway;
/// pool/tiered entries are single nodes.
///
/// Each instance is a *caching* forwarder: hits are served locally, misses
/// are forwarded to the external tier chosen by the carrier's pairing
/// policy. Instances are pools of machines behind one address (Alzoubi et
/// al.), so a fraction of queries lands on a machine whose cache has not
/// seen the name — the residual miss tail of Fig. 7.
///
/// Caches are per device (net/device_state.h): each device sees its own
/// copy of every instance cache, created cold on first use and freed when
/// its timeline ends, so cohorts of the same carrier never contend and a
/// device's cache-hit pattern is independent of the cohort partition.
/// Population-level warmth is the external tier's background-load model;
/// what a device's *own* queries left behind (the Fig. 7 back-to-back
/// repeat) stays in its net::DeviceState.
class ClientFacingResolver : public dns::DnsServer {
 public:
  /// Takes its device-state slot from `topology` (net/device_state.h).
  ClientFacingResolver(CellularNetwork* carrier, int index, net::Ipv4Addr ip,
                       net::Topology& topology);

  dns::ServedResponse serve(const dns::Message& query,
                            net::Ipv4Addr source_ip, net::SimTime now,
                            net::Rng& rng, net::DeviceState& device) override;
  net::NodeId node() const override;
  net::Ipv4Addr ip() const override { return ip_; }
  net::NodeId node_for(net::Ipv4Addr source, net::SimTime now) const override;

  int index() const { return index_; }

 private:
  using InstanceCaches = std::unordered_map<net::NodeId, dns::Cache>;

  /// `device`'s cache for `instance`, created on first touch.
  dns::Cache& cache_for(net::NodeId instance, net::DeviceState& device);

  CellularNetwork* carrier_;
  int index_;
  net::Ipv4Addr ip_;
  net::DeviceLocal<InstanceCaches> caches_;
};

/// Everything the world builder must provide to a carrier.
struct CarrierBuildContext {
  net::Topology* topology = nullptr;
  dns::ServerRegistry* registry = nullptr;
  net::IpAllocator* allocator = nullptr;
  /// Backbone router nearest a location (gateways/DMZ hosts link to it).
  std::function<net::NodeId(const net::GeoPoint&)> nearest_backbone;
  net::Ipv4Addr root_dns_ip;
  /// Which names background subscriber load keeps warm in resolver caches
  /// (measurement-unique names must stay cold); empty = all names.
  std::function<bool(const dns::DnsName&)> warm_eligible;
  uint64_t build_seed = 0;
};

class CellularNetwork {
 public:
  CellularNetwork(CarrierProfile profile, uint32_t owner_tag,
                  const CarrierBuildContext& context);
  ~CellularNetwork();
  CellularNetwork(const CellularNetwork&) = delete;
  CellularNetwork& operator=(const CellularNetwork&) = delete;

  const CarrierProfile& profile() const { return profile_; }
  uint32_t owner_tag() const { return owner_tag_; }
  net::ZoneId zone() const { return zone_; }

  // --- device attachment ------------------------------------------------
  /// Gateway index a device at `location` attaches to; weighted toward
  /// the nearest region with occasional spill-over to neighbours.
  int pick_gateway(const net::GeoPoint& location, net::Rng& rng) const;
  /// A fresh public IP for `device` from the gateway's NAT pool, drawn
  /// from the device's own cursor.
  net::Ipv4Addr assign_ip(int gateway_index, net::DeviceState& device);
  /// The gateway's NAT pool: the one /24 its subscriber addresses come
  /// from.
  const net::Prefix& nat_pool(int gateway_index) const {
    return gateways_[static_cast<size_t>(gateway_index)].nat_pool;
  }
  /// Gateway owning `public_ip`'s /24; -1 if not a subscriber address.
  int gateway_of_ip(net::Ipv4Addr public_ip) const;
  /// Resolver address DHCP hands to `device_key` attached at `gateway`.
  net::Ipv4Addr configured_resolver(uint64_t device_key, int gateway_index) const;
  /// Per-experiment radio technology draw from the carrier's mix.
  RadioTech sample_radio(net::Rng& rng) const;

  net::NodeId gateway_node(int gateway_index) const;
  int num_gateways() const { return static_cast<int>(gateways_.size()); }
  int region_of_gateway(int gateway_index) const;

  // --- DNS architecture ------------------------------------------------
  /// Pairing policy: the external resolver serving a query from
  /// `source_ip` through client resolver `client_index` at `now`, plus the
  /// client-facing instance node the query lands on.
  struct PairSelection {
    dns::RecursiveResolver* external = nullptr;
    net::NodeId client_node = net::kInvalidNode;
  };
  PairSelection select_pair(int client_index, net::Ipv4Addr source_ip,
                            net::SimTime now, net::Rng& rng);

  /// Client-facing instance node serving `source_ip` for resolver `index`.
  net::NodeId client_instance_node(int client_index,
                                   net::Ipv4Addr source_ip) const;

  /// RTT of the forwarding leg between a client-facing instance and an
  /// external resolver (0 when collocated on the same node).
  double internal_forward_ms(net::NodeId client_node, net::NodeId external_node,
                             net::Rng& rng) const;

  const std::vector<std::unique_ptr<ClientFacingResolver>>& client_resolvers()
      const {
    return client_resolvers_;
  }
  const std::vector<std::unique_ptr<dns::RecursiveResolver>>&
  external_resolvers() const {
    return external_resolvers_;
  }

 private:
  struct Gateway {
    explicit Gateway(uint32_t device_slot) : nat_cursor(device_slot) {}
    net::NodeId node = net::kInvalidNode;
    int region = 0;
    net::Prefix nat_pool;
    /// NAT host cursor, advanced by assign_ip; 0 until seeded (a seeded
    /// cursor is always in [1, hosts]). It lives here (not in the world's
    /// IpAllocator) so address churn is carrier-private state campaign
    /// shards can mutate without touching the shared world, and it is
    /// per device so a device's address sequence is independent of the
    /// cohort partition.
    net::DeviceLocal<uint64_t> nat_cursor;
  };
  struct Region {
    net::GeoPoint location;
    net::NodeId hub = net::kInvalidNode;
    std::vector<int> externals;  ///< external resolver indices homed here
    net::NodeId client_instance = net::kInvalidNode;  ///< anycast instance
    int nearest_site_region = 0;  ///< external site serving this region
  };

  void build_regions(const CarrierBuildContext& context);
  void build_gateways(const CarrierBuildContext& context);
  void build_dns(const CarrierBuildContext& context);

  /// Deterministic "home" external for a pairing key at a point in time.
  int home_external(uint64_t pair_key, net::SimTime now,
                    const std::vector<int>& candidates) const;

  CarrierProfile profile_;
  uint32_t owner_tag_;
  net::ZoneId zone_ = 0;
  net::ZoneId dmz_zone_ = 0;
  net::Topology* topology_ = nullptr;
  net::IpAllocator* allocator_ = nullptr;
  uint64_t seed_ = 0;

  std::vector<Region> regions_;
  std::vector<Gateway> gateways_;
  std::unordered_map<uint32_t, int> gateway_by_pool_;  ///< /24 base -> index

  std::vector<std::unique_ptr<ClientFacingResolver>> client_resolvers_;
  std::vector<net::NodeId> client_resolver_nodes_;  ///< pool/tiered entries
  std::vector<int> client_for_region_;  ///< nearest pool/tiered entry
  std::vector<std::unique_ptr<dns::RecursiveResolver>> external_resolvers_;
  /// 0..n-1 over external_resolvers_: the pairing candidates of a site
  /// region that hosts no externals.
  std::vector<int> all_externals_;
  std::vector<int> tiered_pairing_;  ///< client index -> external index
};

}  // namespace curtain::cellular
