#include "publicdns/public_dns.h"

#include <algorithm>

#include "util/contract.h"
#include "util/index.h"

namespace curtain::publicdns {
namespace {

// Anycast ingress re-evaluates on this period: tunneling and BGP churn
// shift which site a subscriber prefix lands on (Fig. 12's /24 changes).
constexpr double kIngressEpochHours = 8.0;
// Mean per-name background re-fetch interval at a public-DNS site.
// Public resolvers serve enormous populations, so popular names are
// nearly always warm (30 s TTL -> ~93%; Fig. 13's short tail).
constexpr double kPublicBgInterarrivalS = 2.3;
// How many nearby sites a source realistically flips between.
constexpr size_t kIngressCandidates = 4;

// The ingress candidates for an egress at `location`, packed as
// PublicDnsService::ingress_candidates() returns them.
uint64_t rank_sites(const net::GeoPoint& location,
                    const std::vector<PublicDnsSite>& sites) {
  std::vector<std::pair<double, int>> ranked;
  ranked.reserve(sites.size());
  for (size_t s = 0; s < sites.size(); ++s) {
    ranked.emplace_back(net::distance_km(location, sites[s].location),
                        static_cast<int>(s));
  }
  std::sort(ranked.begin(), ranked.end());
  const size_t count = std::min(kIngressCandidates, ranked.size());
  uint64_t packed = count;
  for (size_t c = 0; c < count; ++c) {
    packed |= static_cast<uint64_t>(ranked[c].second) << (8 * (c + 1));
  }
  return packed;
}

}  // namespace

PublicDnsService::PublicDnsService(std::string name, net::Ipv4Addr vip,
                                   int num_sites, int instances_per_site,
                                   const PublicDnsBuildContext& context)
    : name_(std::move(name)),
      vip_(vip),
      topology_(context.topology),
      locate_source_(context.locate_source),
      seed_(net::mix_key(context.build_seed, net::hash_tag(name_))) {
  const auto& metros = net::world_metros();
  const int sites = std::min<int>(num_sites, static_cast<int>(metros.size()));
  CURTAIN_CHECK(sites > 0 && sites <= 0xff)
      << name_ << ": " << sites << " sites do not fit an ingress slot's bytes";
  sites_.reserve(util::idx(sites));
  for (int s = 0; s < sites; ++s) {
    PublicDnsSite site;
    site.metro = metros[util::idx(s)].name;
    site.location = metros[util::idx(s)].location;
    site.prefix = context.allocator->alloc_block(24);

    net::Node node;
    node.name = name_ + "-" + site.metro;
    node.kind = net::NodeKind::kResolver;
    node.zone = net::Topology::internet_zone();
    node.location = site.location;
    node.processing = net::LatencyModel::jittered(0.6, 0.3);
    const net::NodeId node_id = context.topology->add_node(node);
    // The floor models the peering/transit detour between an eyeball
    // network's egress and the public DNS POP: public resolvers sit
    // measurably farther from clients than the carrier's own (Fig. 11).
    context.topology->add_link(node_id,
                               context.nearest_backbone(site.location),
                               net::LatencyModel::wan(12.0, 1.5), 0.0005,
                               false);

    for (int i = 0; i < instances_per_site; ++i) {
      const net::Ipv4Addr instance_ip =
          context.allocator->alloc_host(site.prefix);
      site.instances.push_back(std::make_unique<dns::RecursiveResolver>(
          node.name + "-i" + std::to_string(i), node_id, instance_ip,
          context.topology, context.registry, context.root_dns_ip));
      site.instances.back()->set_background_load(kPublicBgInterarrivalS,
                                                 context.warm_eligible);
      if (context.ecs_enabled) site.instances.back()->enable_ecs();
      context.registry->add(site.instances.back().get());
    }
    sites_.push_back(std::move(site));
  }
  context.registry->add(this);
}

PublicDnsService::~PublicDnsService() = default;

void PublicDnsService::freeze() {
  CURTAIN_CHECK(topology_->frozen() && ingress_ == nullptr)
      << name_ << ": ingress table sized twice or before the topology froze";
  ingress_ = std::make_unique<std::atomic<uint64_t>[]>(topology_->node_count());
}

uint64_t PublicDnsService::ingress_candidates(net::NodeId egress) const {
  CURTAIN_CHECK(ingress_ != nullptr) << name_ << " queried before freeze";
  std::atomic<uint64_t>& slot = ingress_[egress];
  uint64_t packed = slot.load(std::memory_order_relaxed);
  if (packed == 0) {
    packed = rank_sites(topology_->node(egress).location, sites_);
    slot.store(packed, std::memory_order_relaxed);
  }
  return packed;
}

int PublicDnsService::route_site(net::Ipv4Addr source_ip,
                                 net::SimTime now) const {
  const uint32_t slash24 = source_ip.slash24().value();
  const net::NodeId egress =
      locate_source_ ? locate_source_(source_ip) : net::kInvalidNode;
  const auto epoch =
      static_cast<uint64_t>(now.hours() / kIngressEpochHours);
  const uint64_t draw = net::mix_key(net::mix_key(seed_, slash24), epoch);
  if (egress == net::kInvalidNode) {
    // Unknown origin: stable pseudo-random site per /24.
    return static_cast<int>(draw % sites_.size());
  }
  // Flip between the sites nearest the egress: the closest wins most
  // epochs; occasionally routing lands further out. The ranking depends
  // on the egress alone, so it is memoized (ingress_candidates()).
  const uint64_t candidates = ingress_candidates(egress);
  const auto count = static_cast<int>(candidates & 0xff);
  const auto site = [candidates](int c) {
    return static_cast<int>((candidates >> (8 * (c + 1))) & 0xff);
  };
  static constexpr double kWeights[] = {0.70, 0.16, 0.09, 0.05};
  double target = static_cast<double>(draw % 10000) / 10000.0;
  for (int c = 0; c < count; ++c) {
    if (target < kWeights[c] || c == count - 1) return site(c);
    target -= kWeights[c];
  }
  return site(0);
}

net::NodeId PublicDnsService::node() const {
  return sites_.front().instances.front()->node();
}

net::NodeId PublicDnsService::node_for(net::Ipv4Addr source,
                                       net::SimTime now) const {
  return sites_[static_cast<size_t>(route_site(source, now))]
      .instances.front()
      ->node();
}

dns::ServedResponse PublicDnsService::serve(const dns::Message& query,
                                            net::Ipv4Addr source_ip,
                                            net::SimTime now, net::Rng& rng,
                                            net::DeviceState& device) {
  PublicDnsSite& site = sites_[static_cast<size_t>(route_site(source_ip, now))];
  // Load balancing inside the site spreads queries over instance IPs —
  // this is why clients observe many resolver addresses inside one /24
  // (Table 5's IP counts vs /24 counts).
  auto& instance = site.instances[static_cast<size_t>(
      rng.uniform_u64(0, site.instances.size() - 1))];
  return instance->serve(query, source_ip, now, rng, device);
}

}  // namespace curtain::publicdns
