#include "cdn/cdn.h"

#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/contract.h"
#include "util/index.h"

namespace curtain::cdn {
namespace {

using net::GeoPoint;
using net::LatencyModel;

struct CdnMetrics {
  obs::Counter& lookups = obs::metrics().counter(
      "curtain_cdn_mapping_lookups_total",
      "replica-selection decisions made by CDN mapping systems");
  obs::Counter& ecs_mapped = obs::metrics().counter(
      "curtain_cdn_ecs_mapped_total",
      "mapping decisions keyed on an EDNS client subnet");
  obs::Counter& hinted = obs::metrics().counter(
      "curtain_cdn_hinted_prefix_total",
      "mapping decisions with a measurable (latency-mapped) prefix");
  obs::Histogram& answer_size = obs::metrics().histogram(
      "curtain_cdn_answer_size", obs::Histogram::small_count_buckets(),
      "A records returned per CDN response");
};

CdnMetrics& cdn_metrics() {
  // Handles re-bind whenever the thread's sheaf changes (obs/metrics.h).
  static thread_local obs::SheafLocal<CdnMetrics> metrics;
  return metrics.get();
}

// Replica servers per metro cluster.
constexpr size_t kReplicasPerCluster = 3;

// How many A records one response carries; production CDNs typically
// return a couple of addresses from the selected cluster.
constexpr size_t kAnswersPerResponse = 2;

// Rotation bucket: answers rotate through the cluster on this period, so
// repeated queries inside one bucket (and one TTL) see the same replicas.
constexpr double kRotationBucketSeconds = 30.0;

// WHOIS country assumed for an opaque /24 nobody registered.
const std::string kDefaultCountry = "US";

}  // namespace

CdnProvider::CdnProvider(std::string name, dns::DnsName zone_apex,
                         const CdnBuildContext& context,
                         uint32_t answer_ttl_s)
    : provider_name_(std::move(name)),
      zone_apex_(std::move(zone_apex)),
      seed_(net::mix_key(context.build_seed, net::hash_tag(provider_name_))),
      answer_ttl_s_(answer_ttl_s) {
  build_clusters(context);

  // The provider's ADNS lives near a large US metro; its address comes
  // from the first cluster's block neighbourhood.
  const net::Ipv4Addr adns_ip = context.allocator->alloc_host(
      context.allocator->alloc_block(24));
  adns_ = &context.hierarchy->create_zone(zone_apex_, {40.71, -74.01}, adns_ip);
  adns_->set_dynamic_handler(
      [this](const dns::Question& question, net::Ipv4Addr resolver_ip,
             const std::optional<dns::EdnsClientSubnet>& ecs, net::SimTime now,
             net::Rng& /*rng*/) -> dns::DynamicAnswer {
        return answer_query(question, resolver_ip, ecs, now);
      },
      answer_ttl_s_);
}

void CdnProvider::build_clusters(const CdnBuildContext& context) {
  const auto add_metro = [&](const net::Metro& metro, const std::string& country) {
    ReplicaCluster cluster;
    cluster.index = static_cast<int>(clusters_.size());
    cluster.metro = metro.name;
    cluster.location = metro.location;
    cluster.country = country;
    cluster.prefix = context.allocator->alloc_block(24);
    const net::NodeId backbone = context.nearest_backbone(metro.location);
    for (size_t r = 0; r < kReplicasPerCluster; ++r) {
      const net::Ipv4Addr ip = context.allocator->alloc_host(cluster.prefix);
      net::Node node;
      node.name = provider_name_ + "-" + metro.name + "-r" + std::to_string(r);
      node.kind = net::NodeKind::kReplica;
      node.zone = net::Topology::internet_zone();
      node.location = metro.location;
      node.ip = ip;
      // HTTP service time dominates a replica's contribution to TTFB.
      node.processing = LatencyModel::jittered(3.0, 0.4);
      const net::NodeId id = context.topology->add_node(node);
      context.topology->add_link(id, backbone, LatencyModel::jittered(0.8, 0.3),
                                 0.0005, false);
      cluster.replica_nodes.push_back(id);
      cluster.replica_ips.push_back(ip);
    }
    cluster_by_replica_slash24_[cluster.prefix.address().value()] =
        cluster.index;
    clusters_by_country_[country].push_back(cluster.index);
    all_clusters_.push_back(cluster.index);
    clusters_.push_back(std::move(cluster));
  };
  // 2014-era CDNs served mobile eyeballs from a modest number of large
  // POPs; a footprint of 8 US + 2 KR metros keeps the replica geography
  // coarse enough that two reasonable mappings often agree (Fig. 14's
  // mass at zero) while disagreements still cost tens of ms (Fig. 2).
  const std::vector<std::string> us_sites{"New York",   "Los Angeles",
                                          "Chicago",    "Dallas",
                                          "Washington DC", "Atlanta",
                                          "San Francisco", "Seattle"};
  for (const auto& metro : net::us_metros()) {
    if (std::find(us_sites.begin(), us_sites.end(), metro.name) !=
        us_sites.end()) {
      add_metro(metro, "US");
    }
  }
  const std::vector<std::string> kr_sites{"Seoul", "Busan"};
  for (const auto& metro : net::kr_metros()) {
    if (std::find(kr_sites.begin(), kr_sites.end(), metro.name) !=
        kr_sites.end()) {
      add_metro(metro, "KR");
    }
  }
}

dns::DnsName CdnProvider::add_customer(const std::string& label) {
  const dns::DnsName edge = *zone_apex_.child(label);
  // Every answer answer_query() can give: per cluster, one rrset per
  // rotation start, each the next kAnswersPerResponse replicas.
  std::vector<dns::Rrset> answers;
  answers.reserve(clusters_.size() * kReplicasPerCluster);
  for (const ReplicaCluster& cluster : clusters_) {
    const size_t size = cluster.replica_ips.size();
    CURTAIN_CHECK(size == kReplicasPerCluster)
        << cluster.metro << " has " << size << " replicas";
    const size_t n = std::min(kAnswersPerResponse, size);
    for (size_t start = 0; start < size; ++start) {
      dns::Rrset& rrset = answers.emplace_back();
      for (size_t i = 0; i < n; ++i) {
        rrset.add(dns::ResourceRecord::a(
            edge, cluster.replica_ips[(start + i) % size], answer_ttl_s_));
      }
    }
  }
  customers_.insert_or_assign(label, std::move(answers));
  return edge;
}

void CdnProvider::collect_names(dns::NameTable& names) const {
  names.add(zone_apex_);
  // A customer's answers are A rrsets owned by its one edge name.
  for (const auto& [label, answers] : customers_) {
    if (!answers.empty()) names.add(answers.front().front().name);
  }
}

void CdnProvider::intern_names(const dns::NameTable& names) {
  names.intern(zone_apex_);
  for (auto& [label, answers] : customers_) {
    for (dns::Rrset& rrset : answers) rrset.intern_names(names);
  }
}

void CdnProvider::add_prefix_hint(net::Prefix slash24,
                                  const net::GeoPoint& location,
                                  const std::string& country) {
  Hint& hint = prefix_hints_[slash24.address().value()];
  hint.location = location;
  hint.country = country;
  hint.nearest.store(-1, std::memory_order_relaxed);
}

void CdnProvider::add_prefix_country(net::Prefix slash24,
                                     const std::string& country) {
  prefix_countries_[slash24.address().value()] = country;
}

const ReplicaCluster& CdnProvider::nearest_cluster(
    const net::GeoPoint& location, const std::string& country) const {
  const ReplicaCluster* best = &clusters_.front();
  double best_distance = std::numeric_limits<double>::infinity();
  for (const auto& cluster : clusters_) {
    if (!country.empty() && cluster.country != country) continue;
    const double d = net::distance_km(location, cluster.location);
    if (d < best_distance) {
      best_distance = d;
      best = &cluster;
    }
  }
  return *best;
}

const ReplicaCluster& CdnProvider::cluster_for_resolver(
    net::Ipv4Addr resolver_ip) const {
  const uint32_t slash24 = resolver_ip.slash24().value();
  const auto hint = prefix_hints_.find(slash24);
  if (hint != prefix_hints_.end()) {
    // Measurable prefix: latency-aware mapping to the nearest cluster.
    std::atomic<int>& nearest = hint->second.nearest;
    int index = nearest.load(std::memory_order_relaxed);
    if (index < 0) {
      index = nearest_cluster(hint->second.location, hint->second.country)
                  .index;
      nearest.store(index, std::memory_order_relaxed);
    }
    return clusters_[util::idx(index)];
  }
  // Opaque prefix (cellular): nothing to measure behind the ingress.
  // Address registration (WHOIS) still reveals the country, so the
  // assignment is a sticky hash over that country's clusters — stable per
  // /24 (Fig. 10) but uncorrelated with where the clients actually are
  // (Fig. 2's penalties).
  // A country without clusters (a carrier outside the US and KR) has no
  // in-country pool; the hash then ranges over every cluster, as a CDN
  // would serve such a prefix from some POP abroad.
  const uint64_t h = net::mix_key(seed_, slash24);
  const auto country_it = prefix_countries_.find(slash24);
  const auto pool_it = clusters_by_country_.find(
      country_it == prefix_countries_.end() ? kDefaultCountry
                                            : country_it->second);
  const std::vector<int>& pool =
      pool_it == clusters_by_country_.end() ? all_clusters_ : pool_it->second;
  return clusters_[util::idx(pool[h % pool.size()])];
}

const ReplicaCluster* CdnProvider::cluster_of_replica(
    net::Ipv4Addr replica_ip) const {
  const auto it = cluster_by_replica_slash24_.find(replica_ip.slash24().value());
  return it == cluster_by_replica_slash24_.end() ? nullptr
                                                 : &clusters_[util::idx(it->second)];
}

const dns::Rrset* CdnProvider::answer_query(
    const dns::Question& question, net::Ipv4Addr resolver_ip,
    const std::optional<dns::EdnsClientSubnet>& ecs, net::SimTime now) {
  if (question.type != dns::RRType::kA) return nullptr;
  // Expect <customer>.<zone_apex>.
  if (!question.name.is_within(zone_apex_) ||
      question.name.label_count() != zone_apex_.label_count() + 1) {
    return nullptr;
  }
  const auto customer = customers_.find(question.name.label(0));
  if (customer == customers_.end()) return nullptr;

  // RFC 7871: when the resolver discloses the client's subnet, map by the
  // client; otherwise fall back to the resolver's address — the paper-era
  // status quo that mislocalizes cellular users.
  const net::Ipv4Addr map_key = ecs ? ecs->address : resolver_ip;
  obs::ScopedSpan span("cdn_mapping", now.millis());
  span.finish(now.millis());  // hop marker; cost charged by the transport
  cdn_metrics().lookups.inc();
  if (ecs) cdn_metrics().ecs_mapped.inc();
  if (prefix_hints_.find(map_key.slash24().value()) != prefix_hints_.end()) {
    cdn_metrics().hinted.inc();
  }
  const ReplicaCluster& cluster = cluster_for_resolver(map_key);
  // Rotate through the cluster per (mapped /24, name, time bucket).
  const auto bucket = static_cast<uint64_t>(now.seconds() / kRotationBucketSeconds);
  const uint64_t base = net::mix_key(
      net::mix_key(seed_, map_key.slash24().value() ^ question.name.hash()),
      bucket);
  const dns::Rrset& answers =
      customer->second[util::idx(cluster.index) * kReplicasPerCluster +
                       base % cluster.replica_ips.size()];
  cdn_metrics().answer_size.observe(static_cast<double>(answers.size()));
  return &answers;
}

}  // namespace curtain::cdn
