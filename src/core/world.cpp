#include "core/world.h"

#include <limits>

#include "dns/reverse.h"

namespace curtain::core {
namespace {

using net::GeoPoint;
using net::LatencyModel;

// The vantage point is a university host in Evanston, IL — an homage to
// the authors' institution.
const GeoPoint kVantageLocation{42.05, -87.68};
const net::Ipv4Addr kVantageIp{129, 105, 0, 5};

// Public DNS shape besides Google's site count (Scenario::google_sites).
constexpr int kGoogleInstancesPerSite = 8;
constexpr int kOpenDnsSites = 20;
constexpr int kOpenDnsInstancesPerSite = 6;

std::string metro_country(const std::string& metro_name) {
  for (const auto& metro : net::us_metros()) {
    if (metro.name == metro_name) return "US";
  }
  for (const auto& metro : net::kr_metros()) {
    if (metro.name == metro_name) return "KR";
  }
  return "";
}

}  // namespace

World::World(Scenario config)
    : config_(std::move(config)),
      allocator_(std::make_unique<net::IpAllocator>(
          net::Prefix(net::Ipv4Addr{20, 0, 0, 0}, 6))),
      vantage_ip_(kVantageIp) {
  build_backbone();
  build_vantage();
  build_hierarchy_and_research_zone();
  build_cdns();
  build_public_dns();
  build_carriers();
  register_cdn_hints();
  intern_names();
  freeze_topology();
}

World::~World() = default;

void World::build_backbone() {
  const auto& metros = net::world_metros();
  backbone_nodes_.reserve(metros.size());
  const net::Prefix backbone_block = allocator_->alloc_block(24);
  for (const auto& metro : metros) {
    net::Node node;
    node.name = "ix-" + metro.name;
    node.kind = net::NodeKind::kRouter;
    node.zone = net::Topology::internet_zone();
    node.location = metro.location;
    node.ip = allocator_->alloc_host(backbone_block);  // PTR-resolvable hop
    node.processing = LatencyModel::fixed(0.05);
    backbone_nodes_.push_back(topology_.add_node(node));
  }
  // Full mesh: inter-metro latency is dominated by propagation, so the
  // shortest path is always the (near-)direct link, as on real backbones.
  for (size_t i = 0; i < backbone_nodes_.size(); ++i) {
    for (size_t j = i + 1; j < backbone_nodes_.size(); ++j) {
      const double prop =
          net::propagation_ms(metros[i].location, metros[j].location);
      topology_.add_link(backbone_nodes_[i], backbone_nodes_[j],
                         LatencyModel::wan(prop, 0.8), /*loss=*/0.0002);
    }
  }
}

net::NodeId World::nearest_backbone(const GeoPoint& location) const {
  net::NodeId best = backbone_nodes_.front();
  double best_distance = std::numeric_limits<double>::infinity();
  for (const net::NodeId id : backbone_nodes_) {
    const double d = net::distance_km(location, topology_.node(id).location);
    if (d < best_distance) {
      best_distance = d;
      best = id;
    }
  }
  return best;
}

dns::HostFactory World::host_factory() {
  return [this](const std::string& name, net::NodeKind kind,
                const GeoPoint& location, net::Ipv4Addr ip) {
    net::Node node;
    node.name = name;
    node.kind = kind;
    node.zone = net::Topology::internet_zone();
    node.location = location;
    node.ip = ip;
    node.processing = LatencyModel::jittered(0.5, 0.3);
    const net::NodeId id = topology_.add_node(node);
    topology_.add_link(id, nearest_backbone(location),
                       LatencyModel::jittered(0.8, 0.3), 0.0002);
    return id;
  };
}

void World::build_vantage() {
  net::Node node;
  node.name = "vantage-university";
  node.kind = net::NodeKind::kVantagePoint;
  node.zone = net::Topology::internet_zone();
  node.location = kVantageLocation;
  node.ip = vantage_ip_;
  vantage_node_ = topology_.add_node(node);
  topology_.add_link(vantage_node_, nearest_backbone(kVantageLocation),
                     LatencyModel::jittered(1.0, 0.3), 0.0002);
}

void World::build_hierarchy_and_research_zone() {
  hierarchy_ = std::make_unique<dns::DnsHierarchy>(host_factory(), &registry_);
  research_apex_ = *dns::DnsName::parse("curtain-study.net");
  auto& research_adns = hierarchy_->create_zone(
      research_apex_, kVantageLocation, net::Ipv4Addr{129, 105, 100, 53});
  measure::ResolverIdentifier::install_handler(research_adns);

  // Reverse DNS: traceroute hop identification resolves in-addr.arpa PTRs
  // published from the topology's IP index (every addressable node).
  auto& reverse_zone = hierarchy_->create_zone(
      *dns::DnsName::parse("in-addr.arpa"), {38.9, -77.5},
      net::Ipv4Addr{198, 51, 100, 53});
  dns::install_reverse_zone(reverse_zone, &topology_,
                            *dns::DnsName::parse("rev.curtain-study.net"));
}

void World::build_cdns() {
  cdn::CdnBuildContext context;
  context.topology = &topology_;
  context.registry = &registry_;
  context.allocator = allocator_.get();
  context.hierarchy = hierarchy_.get();
  context.nearest_backbone = [this](const GeoPoint& location) {
    return nearest_backbone(location);
  };
  context.build_seed = config_.seed;

  std::map<std::string, cdn::CdnProvider*> providers;
  for (const std::string& name : cdn::study_cdn_names()) {
    auto apex = dns::DnsName::parse(name + ".net");
    auto provider = std::make_unique<cdn::CdnProvider>(
        name, *apex, context, config_.cdn_answer_ttl_s);
    providers[name] = provider.get();
    cdns_[name] = std::move(provider);
  }
  cdn::wire_origin_zones(providers, *hierarchy_, *allocator_);
}

void World::build_public_dns() {
  publicdns::PublicDnsBuildContext context;
  context.topology = &topology_;
  context.registry = &registry_;
  context.allocator = allocator_.get();
  context.nearest_backbone = [this](const GeoPoint& location) {
    return nearest_backbone(location);
  };
  context.root_dns_ip = hierarchy_->root_ip();
  context.build_seed = config_.seed;
  // Reads the apex at query time, when it is a static name's handle.
  context.warm_eligible = [this](const dns::DnsName& name) {
    return !name.is_within(research_apex_);
  };
  // Anycast ingress follows the querying prefix's egress location, which
  // for subscribers is their carrier gateway.
  context.locate_source = [this](net::Ipv4Addr source) {
    for (const auto& carrier : carriers_) {
      const int gateway = carrier->gateway_of_ip(source);
      if (gateway >= 0) return carrier->gateway_node(gateway);
    }
    return topology_.find_by_ip(source);
  };

  context.ecs_enabled = config_.google_ecs;
  google_ = std::make_unique<publicdns::PublicDnsService>(
      "GoogleDNS", publicdns::kGoogleVip, config_.google_sites,
      kGoogleInstancesPerSite, context);
  context.ecs_enabled = false;  // OpenDNS did not send ECS in the era
  opendns_ = std::make_unique<publicdns::PublicDnsService>(
      "OpenDNS", publicdns::kOpenDnsVip, kOpenDnsSites,
      kOpenDnsInstancesPerSite, context);
}

void World::build_carriers() {
  cellular::CarrierBuildContext context;
  context.topology = &topology_;
  context.registry = &registry_;
  context.allocator = allocator_.get();
  context.nearest_backbone = [this](const GeoPoint& location) {
    return nearest_backbone(location);
  };
  context.root_dns_ip = hierarchy_->root_ip();
  context.warm_eligible = [this](const dns::DnsName& name) {
    return !name.is_within(research_apex_);
  };
  context.build_seed = config_.seed;

  uint32_t owner_tag = 1;
  for (const auto& profile : config_.carrier_table()) {
    carriers_.push_back(std::make_unique<cellular::CellularNetwork>(
        profile, owner_tag++, context));
  }
}

void World::intern_names() {
  // Everything that names DNS data exists now: zones, delegations, glue,
  // CNAME targets and the CDN edges. One sort numbers it all.
  hierarchy_->collect_names(names_);
  for (const auto& [name, provider] : cdns_) provider->collect_names(names_);
  names_.freeze();
  hierarchy_->bind_names(names_);
  for (auto& [name, provider] : cdns_) provider->intern_names(names_);
  names_.intern(research_apex_);
}

void World::freeze_topology() {
  // Every node and link exists now. Close the graph and size the per-node
  // tables that campaign workers fill on first use and then share: the
  // route trees and each public-DNS service's anycast ingress rankings.
  topology_.freeze();
  google_->freeze();
  opendns_->freeze();
}

void World::register_cdn_hints() {
  for (auto& [name, provider] : cdns_) {
    // Public DNS sites are on the open Internet: fully measurable.
    for (const auto* service :
         {google_.get(), opendns_.get()}) {
      for (const auto& site : service->sites()) {
        provider->add_prefix_hint(site.prefix, site.location,
                                  metro_country(site.metro));
      }
    }
    // Carrier resolver prefixes. A CDN cannot probe behind the cellular
    // ingress (§4.4), but BGP and registration data still place a /24
    // coarsely near where it is announced — so opaque prefixes get a
    // *noisy* location hint at the resolver's site, while DMZ-hosted
    // tiers (ping-measurable from outside) get a precise one. The
    // resolver's site is still a poor proxy for the *client*, which is
    // exactly the mislocalization the paper quantifies.
    net::Rng hint_rng(net::mix_key(config_.seed, net::hash_tag("cdn-hints")));
    for (const auto& carrier : carriers_) {
      const auto& profile = carrier->profile();
      // Subscriber NAT pools: each /24 is announced at one gateway, so —
      // unlike the resolver tier — *client* subnets are geolocatable from
      // BGP. This is what makes EDNS client-subnet effective: when a
      // resolver discloses the client /24, the CDN has a good hint for it.
      for (int g = 0; g < carrier->num_gateways(); ++g) {
        const auto& gateway_node = topology_.node(carrier->gateway_node(g));
        const net::Prefix& pool = carrier->nat_pool(g);
        provider->add_prefix_country(pool, profile.country);
        provider->add_prefix_hint(
            pool,
            net::offset_km(gateway_node.location, hint_rng.normal(0.0, 50.0),
                           hint_rng.normal(0.0, 50.0)),
            profile.country);
      }
      for (const auto& resolver : carrier->external_resolvers()) {
        const net::Prefix slash24(resolver->ip().slash24(), 24);
        provider->add_prefix_country(slash24, profile.country);
        const net::GeoPoint site = topology_.node(resolver->node()).location;
        const double noise_km = profile.reach.externals_in_dmz ? 40.0 : 100.0;
        const net::GeoPoint hinted = net::offset_km(
            site, hint_rng.normal(0.0, noise_km),
            hint_rng.normal(0.0, noise_km));
        provider->add_prefix_hint(slash24, hinted, profile.country);
      }
    }
  }
}

}  // namespace curtain::core
