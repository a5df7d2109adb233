#include "cellular/carrier.h"

#include <algorithm>

#include "dns/message.h"
#include "net/geo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/contract.h"
#include "util/index.h"

namespace curtain::cellular {
namespace {

using net::GeoPoint;
using net::LatencyModel;
using net::NodeId;
using net::SimTime;

// Internal-link latencies (ms, one way). All carrier-internal links are
// tunneled (MPLS/VPN), matching §4.2's observation that traceroute reveals
// no internal structure.
constexpr double kGatewayToHubMs = 2.0;
constexpr double kHubToResolverMs = 1.0;
constexpr double kEgressLinkMs = 1.5;

// Mean per-name background re-fetch interval at a carrier's external
// resolvers. With the CDNs' 30 s TTLs this leaves entries warm
// 30/(30+4.9) ~ 86% of the time — the residual misses are Fig. 7's tail.
constexpr double kCarrierBgInterarrivalS = 4.9;

// Client-facing addresses front pools of machines; this is the chance a
// query lands on a machine whose cache has not seen the name (drives the
// ~20% slow back-to-back repeats of Fig. 7).
constexpr double kColdPoolMachineP = 0.18;

// Local processing when a client-facing instance answers from cache.
constexpr double kClientCacheHitMs = 0.4;

struct CarrierMetrics {
  obs::Counter& client_queries = obs::metrics().counter(
      "curtain_cell_client_queries_total",
      "queries arriving at client-facing carrier resolvers");
  obs::Counter& client_cache_hits = obs::metrics().counter(
      "curtain_cell_client_cache_hits_total",
      "queries answered from a client-facing instance cache");
  obs::Counter& cold_pool = obs::metrics().counter(
      "curtain_cell_cold_pool_machine_total",
      "queries that hashed onto a cold pool machine (Fig. 7 misses)");
  obs::Counter& forwards = obs::metrics().counter(
      "curtain_cell_forwards_total",
      "queries forwarded to an external-tier resolver");
  obs::Counter& servfail = obs::metrics().counter(
      "curtain_cell_servfail_total",
      "queries failed inside the carrier (no external pair)");
  obs::Counter& churn = obs::metrics().counter(
      "curtain_cell_resolver_churn_total",
      "pair selections that deviated from the sticky home resolver");
};

CarrierMetrics& carrier_metrics() {
  // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h).
  static thread_local obs::SheafLocal<CarrierMetrics> metrics;
  return metrics.get();
}

}  // namespace

// --- ClientFacingResolver ---------------------------------------------------

ClientFacingResolver::ClientFacingResolver(CellularNetwork* carrier, int index,
                                           net::Ipv4Addr ip,
                                           net::Topology& topology)
    : carrier_(carrier),
      index_(index),
      ip_(ip),
      caches_(topology.issue_device_slot()) {}

dns::Cache& ClientFacingResolver::cache_for(net::NodeId instance,
                                            net::DeviceState& device) {
  return caches_.get(device)[instance];  // default-constructed on first use
}

dns::ServedResponse ClientFacingResolver::serve(const dns::Message& query,
                                                net::Ipv4Addr source_ip,
                                                net::SimTime now,
                                                net::Rng& rng,
                                                net::DeviceState& device) {
  CURTAIN_DCHECK(query.question.has_value()) << "query carries no question";
  const dns::Question& question = *query.question;
  const net::NodeId instance = carrier_->client_instance_node(index_, source_ip);
  dns::Cache& cache = cache_for(instance, device);
  carrier_metrics().client_queries.inc();

  // Serve from this instance's cache unless the query hashed onto a cold
  // pool machine.
  if (!rng.bernoulli(kColdPoolMachineP)) {
    if (auto hit = cache.lookup(question.name, question.type, now);
        hit && !hit->negative() && !hit->records().empty()) {
      carrier_metrics().client_cache_hits.inc();
      obs::ScopedSpan span("cell_ldns_cache", now.millis());
      span.finish(now.millis() + kClientCacheHitMs);
      dns::ServedResponse served{query.make_response(), kClientCacheHitMs};
      served.message.header.ra = true;
      hit->append_aged(served.message.answers);
      return served;
    }
  } else {
    carrier_metrics().cold_pool.inc();
  }

  auto selection = carrier_->select_pair(index_, source_ip, now, rng);
  if (selection.external == nullptr) {
    carrier_metrics().servfail.inc();
    dns::ServedResponse failure{query.make_response(), 0.0};
    failure.message.header.rcode = dns::Rcode::kServFail;
    return failure;
  }
  carrier_metrics().forwards.inc();
  obs::ScopedSpan span("forward_external", now.millis());
  dns::ServedResponse served =
      selection.external->serve(query, source_ip, now, rng, device);
  // Forwarding leg: client-facing instance to the external resolver and
  // back. Collocated architectures (SK Telecom) contribute ~0 here.
  served.server_side_ms += carrier_->internal_forward_ms(
      selection.client_node, selection.external->node(), rng);
  span.finish(now.millis() + served.server_side_ms);

  // Cache the whole answer chain under the question key (forwarder-style;
  // the TTL is the chain minimum, so short CDN TTLs dominate).
  if (served.message.header.rcode == dns::Rcode::kNoError &&
      !served.message.answers.empty()) {
    cache.insert(question.name, question.type, served.message.answers, now);
  }
  return served;
}

net::NodeId ClientFacingResolver::node() const {
  return carrier_->client_instance_node(index_, net::Ipv4Addr{});
}

net::NodeId ClientFacingResolver::node_for(net::Ipv4Addr source,
                                           net::SimTime /*now*/) const {
  return carrier_->client_instance_node(index_, source);
}

// --- CellularNetwork --------------------------------------------------------

CellularNetwork::CellularNetwork(CarrierProfile profile, uint32_t owner_tag,
                                 const CarrierBuildContext& context)
    : profile_(std::move(profile)),
      owner_tag_(owner_tag),
      topology_(context.topology),
      allocator_(context.allocator),
      seed_(net::mix_key(context.build_seed, net::hash_tag(profile_.name))) {
  profile_.owner_tag = owner_tag;
  zone_ = topology_->add_zone(profile_.name, /*blocks_inbound_probes=*/true);
  if (profile_.reach.externals_in_dmz) {
    dmz_zone_ = topology_->add_zone(profile_.name + "-dns-dmz",
                                    /*blocks_inbound_probes=*/false);
  }
  build_regions(context);
  build_gateways(context);
  build_dns(context);
  for (auto& client : client_resolvers_) context.registry->add(client.get());
  for (size_t i = 0; i < external_resolvers_.size(); ++i) {
    all_externals_.push_back(static_cast<int>(i));
  }
}

CellularNetwork::~CellularNetwork() = default;

void CellularNetwork::build_regions(const CarrierBuildContext& /*context*/) {
  const auto& metros =
      profile_.country == "KR" ? net::kr_metros() : net::us_metros();
  const int count = std::min<int>(profile_.regions,
                                  static_cast<int>(metros.size()));
  regions_.resize(util::idx(count));
  for (int r = 0; r < count; ++r) {
    Region& region = regions_[util::idx(r)];
    region.location = metros[util::idx(r)].location;
    net::Node hub;
    hub.name = profile_.name + "-hub-" + metros[util::idx(r)].name;
    hub.kind = net::NodeKind::kRouter;
    hub.zone = zone_;
    hub.location = region.location;
    hub.owner_tag = owner_tag_;
    hub.responds_to_traceroute = false;  // tunneled core
    region.hub = topology_->add_node(hub);
  }
  // Star topology on the first region's hub; hub-to-hub links are tunneled.
  for (int r = 1; r < count; ++r) {
    const double prop =
        net::propagation_ms(regions_[0].location, regions_[util::idx(r)].location);
    topology_->add_link(regions_[0].hub, regions_[util::idx(r)].hub,
                        LatencyModel::wan(prop, 1.5), /*loss=*/0.0005,
                        /*tunneled=*/true);
  }
}

void CellularNetwork::build_gateways(const CarrierBuildContext& context) {
  net::Rng rng(net::mix_key(seed_, net::hash_tag("gateways")));
  gateways_.reserve(util::idx(profile_.egress_points));
  // Gateways carry addresses so their traceroute hops are PTR-resolvable.
  net::Prefix infra_block = allocator_->alloc_block(24);
  int hosts_in_block = 0;
  for (int g = 0; g < profile_.egress_points; ++g) {
    Gateway& gateway = gateways_.emplace_back(topology_->issue_device_slot());
    gateway.region = g % static_cast<int>(regions_.size());
    const Region& region = regions_[util::idx(gateway.region)];
    const GeoPoint location = net::offset_km(
        region.location, rng.uniform(-30, 30), rng.uniform(-30, 30));

    net::Node node;
    node.name = profile_.name + "-pgw-" + std::to_string(g);
    node.kind = net::NodeKind::kGateway;
    node.zone = zone_;
    node.location = location;
    node.owner_tag = owner_tag_;
    if (++hosts_in_block > 250) {
      infra_block = allocator_->alloc_block(24);
      hosts_in_block = 1;
    }
    node.ip = allocator_->alloc_host(infra_block);
    // Gateways are the one visible carrier hop: they terminate the tunnel
    // and sit right at the ingress/egress boundary.
    node.responds_to_traceroute = true;
    gateway.node = topology_->add_node(node);

    topology_->add_link(gateway.node, region.hub,
                        LatencyModel::jittered(kGatewayToHubMs, 0.3), 0.0005,
                        /*tunneled=*/true);
    const NodeId backbone = context.nearest_backbone(location);
    topology_->add_link(gateway.node, backbone,
                        LatencyModel::jittered(kEgressLinkMs, 0.3), 0.0005,
                        /*tunneled=*/false);

    gateway.nat_pool = allocator_->alloc_block(24);
    gateway_by_pool_[gateway.nat_pool.address().value()] = g;
  }
}

void CellularNetwork::build_dns(const CarrierBuildContext& context) {
  net::Rng rng(net::mix_key(seed_, net::hash_tag("dns")));
  const auto& dns_cfg = profile_.dns;

  // External address blocks. Same-/24 architectures share blocks between
  // client and external entries (SK carriers, §4.1).
  std::vector<net::Prefix> external_blocks;
  for (int b = 0; b < dns_cfg.external_slash24s; ++b) {
    external_blocks.push_back(allocator_->alloc_block(24));
  }
  std::vector<net::Prefix> client_blocks;
  if (dns_cfg.paired_same_slash24) {
    client_blocks = external_blocks;
  } else {
    client_blocks.push_back(allocator_->alloc_block(24));
  }

  // External resolver sites: collocated with every region, or a handful of
  // central sites (this is what makes externals measurably farther from
  // clients than the client tier, Fig. 4).
  std::vector<int> site_regions;
  if (dns_cfg.externals_collocated) {
    for (size_t r = 0; r < regions_.size(); ++r) site_regions.push_back(int(r));
  } else {
    // Sites are spread geographically (farthest-point sampling from the
    // largest region) so every subscriber has a site within regional
    // distance (Fig. 4's moderate client/external latency gap) and sites
    // are genuinely distinct locations (Fig. 10's disjoint replica sets).
    const int sites =
        std::min<int>(dns_cfg.external_sites, static_cast<int>(regions_.size()));
    site_regions.push_back(0);
    while (static_cast<int>(site_regions.size()) < sites) {
      int best_region = -1;
      double best_spread = -1.0;
      for (size_t r = 0; r < regions_.size(); ++r) {
        double nearest_site = 1e18;
        for (const int s : site_regions) {
          nearest_site = std::min(
              nearest_site,
              net::distance_km(regions_[r].location, regions_[util::idx(s)].location));
        }
        if (nearest_site > best_spread) {
          best_spread = nearest_site;
          best_region = static_cast<int>(r);
        }
      }
      site_regions.push_back(best_region);
    }
    std::sort(site_regions.begin(), site_regions.end());
  }

  const int externally_reachable = static_cast<int>(
      profile_.reach.external_answers_external_fraction *
      dns_cfg.external_resolvers);

  // A /24 is announced at one site (BGP reality); partition the blocks
  // among sites, falling back to sharing when there are fewer blocks than
  // sites (the SK collocated deployments).
  const size_t num_sites = site_regions.size();
  std::vector<std::vector<size_t>> site_blocks(num_sites);
  for (size_t b = 0; b < external_blocks.size(); ++b) {
    site_blocks[b % num_sites].push_back(b);
  }
  for (size_t s = 0; s < num_sites; ++s) {
    if (site_blocks[s].empty()) {
      site_blocks[s].push_back(s % external_blocks.size());
    }
  }
  std::vector<size_t> site_block_cursor(num_sites, 0);

  for (int e = 0; e < dns_cfg.external_resolvers; ++e) {
    const size_t site_index = static_cast<size_t>(e) % num_sites;
    const int region_index = site_regions[site_index];
    Region& region = regions_[util::idx(region_index)];
    const auto& blocks_here = site_blocks[site_index];
    const net::Prefix& block =
        external_blocks[blocks_here[site_block_cursor[site_index]++ %
                                    blocks_here.size()]];
    const net::Ipv4Addr ip = allocator_->alloc_host(block);

    net::Node node;
    node.name = profile_.name + "-ldns-ext-" + std::to_string(e) +
                (profile_.external_as != 0
                     ? "-as" + std::to_string(profile_.external_as)
                     : "");
    node.kind = net::NodeKind::kResolver;
    node.location = region.location;
    node.ip = ip;
    node.owner_tag = owner_tag_;
    node.ping_from_same_owner = profile_.reach.external_answers_internal;
    node.ping_from_other_owner = e < externally_reachable;
    node.responds_to_traceroute = false;
    node.processing = LatencyModel::jittered(0.8, 0.3);

    if (profile_.reach.externals_in_dmz) {
      node.zone = dmz_zone_;
      const NodeId id = topology_->add_node(node);
      topology_->add_link(id, context.nearest_backbone(region.location),
                          LatencyModel::jittered(1.0, 0.3), 0.0005, false);
      // Internal path for forwarded queries from the carrier core.
      topology_->add_link(id, region.hub,
                          LatencyModel::jittered(kHubToResolverMs + 1.0, 0.3),
                          0.0005, /*tunneled=*/true);
      region.externals.push_back(e);
      external_resolvers_.push_back(std::make_unique<dns::RecursiveResolver>(
          node.name, id, ip, topology_, context.registry, context.root_dns_ip));
    } else {
      node.zone = zone_;
      const NodeId id = topology_->add_node(node);
      topology_->add_link(id, region.hub,
                          LatencyModel::jittered(kHubToResolverMs, 0.3), 0.0005,
                          /*tunneled=*/true);
      region.externals.push_back(e);
      external_resolvers_.push_back(std::make_unique<dns::RecursiveResolver>(
          node.name, id, ip, topology_, context.registry, context.root_dns_ip));
    }
    external_resolvers_.back()->set_background_load(kCarrierBgInterarrivalS,
                                                    context.warm_eligible);
    context.registry->add(external_resolvers_.back().get());
  }

  // Client-facing tier.
  if (dns_cfg.kind == DnsArchKind::kAnycast) {
    // Per-region anycast instances; the VIP address itself is not bound to
    // any single node.
    for (auto& region : regions_) {
      net::Node node;
      node.name = profile_.name + "-ldns-anycast-" +
                  std::to_string(&region - regions_.data());
      node.kind = net::NodeKind::kResolver;
      node.zone = zone_;
      node.location = region.location;
      node.owner_tag = owner_tag_;
      node.responds_to_traceroute = false;
      node.processing = LatencyModel::jittered(0.5, 0.3);
      region.client_instance = topology_->add_node(node);
      topology_->add_link(region.client_instance, region.hub,
                          LatencyModel::jittered(kHubToResolverMs, 0.3), 0.0005,
                          /*tunneled=*/true);
    }
    for (int c = 0; c < dns_cfg.client_resolvers; ++c) {
      const net::Ipv4Addr vip = allocator_->alloc_host(client_blocks.front());
      client_resolvers_.push_back(
          std::make_unique<ClientFacingResolver>(this, c, vip, *topology_));
    }
  } else {
    // Pool / tiered: each client address is a concrete host in a region.
    for (int c = 0; c < dns_cfg.client_resolvers; ++c) {
      const int region_index = c % static_cast<int>(regions_.size());
      Region& region = regions_[util::idx(region_index)];
      const net::Prefix& block = client_blocks[util::idx(c) % client_blocks.size()];
      const net::Ipv4Addr ip = allocator_->alloc_host(block);
      net::Node node;
      node.name = profile_.name + "-ldns-client-" + std::to_string(c) +
                  (profile_.client_as != 0
                       ? "-as" + std::to_string(profile_.client_as)
                       : "");
      node.kind = net::NodeKind::kResolver;
      node.zone = zone_;
      node.location = region.location;
      node.ip = ip;
      node.owner_tag = owner_tag_;
      node.ping_from_same_owner = profile_.reach.client_answers_internal;
      node.ping_from_other_owner = false;  // behind the carrier firewall
      node.responds_to_traceroute = false;
      node.processing = LatencyModel::jittered(0.5, 0.3);
      const NodeId id = topology_->add_node(node);
      topology_->add_link(id, region.hub,
                          LatencyModel::jittered(kHubToResolverMs, 0.3), 0.0005,
                          /*tunneled=*/true);
      client_resolver_nodes_.push_back(id);
      client_resolvers_.push_back(
          std::make_unique<ClientFacingResolver>(this, c, ip, *topology_));
    }
    if (dns_cfg.kind == DnsArchKind::kTiered) {
      // Fixed pairing (Verizon): each client-facing front forwards to its
      // own dedicated external-tier resolver — a strict 1:1 matching,
      // greedily assigned by proximity, that never changes.
      tiered_pairing_.resize(util::idx(dns_cfg.client_resolvers));
      std::vector<bool> taken(external_resolvers_.size(), false);
      for (int c = 0; c < dns_cfg.client_resolvers; ++c) {
        const auto& client_node = topology_->node(client_resolver_nodes_[util::idx(c)]);
        double nearest = 1e18;
        int best = c % static_cast<int>(external_resolvers_.size());
        for (size_t e = 0; e < external_resolvers_.size(); ++e) {
          if (taken[e]) continue;
          const auto& node = topology_->node(external_resolvers_[e]->node());
          const double d =
              net::distance_km(client_node.location, node.location);
          if (d < nearest) {
            nearest = d;
            best = static_cast<int>(e);
          }
        }
        taken[static_cast<size_t>(best)] = true;
        tiered_pairing_[util::idx(c)] = best;
      }
    }
  }
  // Direct (tunneled) trunks from every region hub to every external-site
  // hub, and the per-region serving assignments.
  for (size_t r = 0; r < regions_.size(); ++r) {
    int nearest_site = site_regions.front();
    double nearest_distance = 1e18;
    for (const int s : site_regions) {
      const double d =
          net::distance_km(regions_[r].location, regions_[util::idx(s)].location);
      if (d < nearest_distance) {
        nearest_distance = d;
        nearest_site = s;
      }
      if (static_cast<int>(r) != s) {
        const double prop =
            net::propagation_ms(regions_[r].location, regions_[util::idx(s)].location);
        topology_->add_link(regions_[r].hub, regions_[util::idx(s)].hub,
                            LatencyModel::wan(prop, 1.0), 0.0005,
                            /*tunneled=*/true);
      }
    }
    regions_[r].nearest_site_region = nearest_site;
  }
  if (!client_resolver_nodes_.empty()) {
    // DHCP hands out the pool/tiered entry nearest the subscriber's region.
    client_for_region_.resize(regions_.size(), 0);
    for (size_t r = 0; r < regions_.size(); ++r) {
      double nearest_distance = 1e18;
      for (size_t c = 0; c < client_resolver_nodes_.size(); ++c) {
        const auto& node = topology_->node(client_resolver_nodes_[c]);
        const double d = net::distance_km(regions_[r].location, node.location);
        if (d < nearest_distance) {
          nearest_distance = d;
          client_for_region_[r] = static_cast<int>(c);
        }
      }
    }
  }
  (void)rng;
}

int CellularNetwork::pick_gateway(const GeoPoint& location,
                                  net::Rng& rng) const {
  // Rank regions by distance; attach to the nearest most of the time.
  int best_region = 0;
  double best = 1e18;
  int second_region = 0;
  double second = 1e18;
  for (size_t r = 0; r < regions_.size(); ++r) {
    const double d = net::distance_km(location, regions_[r].location);
    if (d < best) {
      second = best;
      second_region = best_region;
      best = d;
      best_region = static_cast<int>(r);
    } else if (d < second) {
      second = d;
      second_region = static_cast<int>(r);
    }
  }
  const int region = rng.bernoulli(0.85) ? best_region : second_region;
  // Uniform among the region's gateways.
  std::vector<int> candidates;
  for (size_t g = 0; g < gateways_.size(); ++g) {
    if (gateways_[g].region == region) candidates.push_back(static_cast<int>(g));
  }
  if (candidates.empty()) return 0;
  return candidates[static_cast<size_t>(
      rng.uniform_u64(0, candidates.size() - 1))];
}

net::Ipv4Addr CellularNetwork::assign_ip(int gateway_index,
                                         net::DeviceState& device) {
  // Same walk as IpAllocator::alloc_host, but on per-(gateway, device)
  // cursors: subscriber address churn is carrier-private runtime state,
  // kept out of the shared (post-construction immutable) world allocator,
  // and per device so one device's address sequence never depends on
  // how many cohorts share its carrier. A device's cursor is seeded from
  // (carrier seed, gateway, device ordinal) on first use, then walks
  // sequentially — the same churn pattern the shared cursor produced,
  // minus the cross-device interleaving.
  Gateway& gateway = gateways_[static_cast<size_t>(gateway_index)];
  uint64_t& cursor = gateway.nat_cursor.get(device);
  const uint64_t hosts = gateway.nat_pool.size() - 1;
  if (cursor == 0) {
    const auto ordinal = static_cast<uint64_t>(device.ordinal());
    cursor = net::mix_key(net::mix_key(seed_, net::hash_tag("nat-cursor")),
                          (static_cast<uint64_t>(gateway_index) << 32) |
                              ordinal) %
             hosts;
  }
  cursor = cursor % hosts + 1;
  return gateway.nat_pool.host(cursor);
}

int CellularNetwork::gateway_of_ip(net::Ipv4Addr public_ip) const {
  const auto it = gateway_by_pool_.find(public_ip.slash24().value());
  return it == gateway_by_pool_.end() ? -1 : it->second;
}

net::Ipv4Addr CellularNetwork::configured_resolver(uint64_t device_key,
                                                   int gateway_index) const {
  const auto& dns_cfg = profile_.dns;
  switch (dns_cfg.kind) {
    case DnsArchKind::kAnycast:
      // Every subscriber gets one of the few VIPs, stable per device.
      return client_resolvers_[device_key % client_resolvers_.size()]->ip();
    case DnsArchKind::kPool:
    case DnsArchKind::kTiered: {
      // Regional assignment: the entry nearest the subscriber's region.
      (void)device_key;
      const int region = gateways_[util::idx(gateway_index)].region;
      return client_resolvers_[static_cast<size_t>(client_for_region_[util::idx(region)])]
          ->ip();
    }
  }
  return client_resolvers_.front()->ip();
}

RadioTech CellularNetwork::sample_radio(net::Rng& rng) const {
  std::vector<double> weights;
  weights.reserve(profile_.radio_mix.size());
  for (const auto& [tech, weight] : profile_.radio_mix) weights.push_back(weight);
  return profile_.radio_mix[rng.weighted_index(weights)].first;
}

net::NodeId CellularNetwork::gateway_node(int gateway_index) const {
  return gateways_[util::idx(gateway_index)].node;
}

int CellularNetwork::region_of_gateway(int gateway_index) const {
  return gateways_[util::idx(gateway_index)].region;
}

net::NodeId CellularNetwork::client_instance_node(
    int client_index, net::Ipv4Addr source_ip) const {
  if (profile_.dns.kind == DnsArchKind::kAnycast) {
    int region = 0;
    const int gateway = gateway_of_ip(source_ip);
    if (gateway >= 0) region = gateways_[util::idx(gateway)].region;
    return regions_[util::idx(region)].client_instance;
  }
  return client_resolver_nodes_[util::idx(client_index)];
}

double CellularNetwork::internal_forward_ms(net::NodeId client_node,
                                            net::NodeId external_node,
                                            net::Rng& rng) const {
  if (client_node == external_node) return 0.0;
  const auto rtt = topology_->transport_rtt_ms(client_node, external_node, rng);
  return rtt.value_or(0.0);
}

int CellularNetwork::home_external(uint64_t pair_key, net::SimTime now,
                                   const std::vector<int>& candidates) const {
  // Epoch index advances on the profile's re-pairing cadence with a
  // per-key phase so the whole fleet does not re-pair simultaneously.
  const int64_t epoch_len = profile_.dns.repair_epoch_mean.micros;
  const int64_t phase =
      static_cast<int64_t>(net::mix_key(seed_, pair_key) % uint64_t(epoch_len));
  const int64_t epoch = (now.micros + phase) / epoch_len;
  const uint64_t draw =
      net::mix_key(net::mix_key(seed_, pair_key), static_cast<uint64_t>(epoch));
  return candidates[draw % candidates.size()];
}

CellularNetwork::PairSelection CellularNetwork::select_pair(
    int client_index, net::Ipv4Addr source_ip, net::SimTime now,
    net::Rng& rng) {
  PairSelection selection;
  selection.client_node = client_instance_node(client_index, source_ip);
  if (external_resolvers_.empty()) return selection;

  const auto& dns_cfg = profile_.dns;
  if (dns_cfg.kind == DnsArchKind::kTiered) {
    selection.external =
        external_resolvers_[util::idx(tiered_pairing_[util::idx(client_index)])].get();
    return selection;
  }

  // Candidate set: anycast pairs within the subscriber's region when the
  // region hosts externals; pools load-balance across the whole set.
  const std::vector<int>* pool = &all_externals_;
  uint64_t pair_key = 0;
  {
    int region = 0;
    const int gateway = gateway_of_ip(source_ip);
    if (gateway >= 0) region = gateways_[util::idx(gateway)].region;
    const int site = regions_[util::idx(region)].nearest_site_region;
    if (!regions_[util::idx(site)].externals.empty()) {
      pool = &regions_[util::idx(site)].externals;
    }
    const char* tag =
        dns_cfg.kind == DnsArchKind::kAnycast ? "anycast-pair" : "pool-pair";
    pair_key = net::mix_key(net::hash_tag(tag),
                            (static_cast<uint64_t>(region) << 8) |
                                static_cast<uint64_t>(client_index));
  }
  const std::vector<int>& candidates = *pool;

  // Flow-sticky load balancing: the carrier's balancers hash flows onto
  // pool members, so all of a client's queries inside a short window land
  // on the same external resolver. The paper's per-measurement
  // consistency emerges across windows, and one experiment's
  // identification query agrees with its domain queries.
  (void)rng;
  const int home = home_external(pair_key, now, candidates);
  int chosen = home;
  constexpr int64_t kFlowWindowMicros = 10LL * 60 * 1000 * 1000;
  const auto window = static_cast<uint64_t>(now.micros / kFlowWindowMicros);
  const uint64_t draw =
      net::mix_key(net::mix_key(seed_ ^ 0x10adba1ace5ULL, pair_key), window);
  const auto threshold =
      static_cast<uint64_t>(dns_cfg.pairing_consistency * 100000.0);
  if (candidates.size() > 1 && draw % 100000 >= threshold) {
    size_t alt = (draw >> 17) % candidates.size();
    if (candidates[alt] == home) alt = (alt + 1) % candidates.size();
    chosen = candidates[alt];
    carrier_metrics().churn.inc();
  }
  selection.external = external_resolvers_[util::idx(chosen)].get();
  return selection;
}

}  // namespace curtain::cellular
