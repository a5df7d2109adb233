// Microbenchmarks for the DNS substrate: wire codec, cache and an
// end-to-end recursive resolution — the operations a full campaign
// performs millions of times.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "dns/hierarchy.h"
#include "dns/name_table.h"
#include "dns/resolver.h"
#include "net/device_state.h"

namespace {

using namespace curtain;

dns::Message sample_message() {
  const auto host = *dns::DnsName::parse("www.buzzfeed.com");
  const auto edge = *dns::DnsName::parse("buzzfeed-www.fastedge.net");
  dns::Message m = dns::Message::query(0x1234, host, dns::RRType::kA)
                       .make_response();
  m.answers.push_back(dns::ResourceRecord::cname(host, edge, 300));
  m.answers.push_back(
      dns::ResourceRecord::a(edge, net::Ipv4Addr{20, 1, 2, 3}, 30));
  m.answers.push_back(
      dns::ResourceRecord::a(edge, net::Ipv4Addr{20, 1, 2, 4}, 30));
  return m;
}

void BM_EncodeMessage(benchmark::State& state) {
  const dns::Message m = sample_message();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(m));
  }
}
BENCHMARK(BM_EncodeMessage);

void BM_DecodeMessage(benchmark::State& state) {
  const auto wire = dns::encode(sample_message());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(wire));
  }
}
BENCHMARK(BM_DecodeMessage);

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::DnsName::parse("edge-17.cdn.example.com"));
  }
}
BENCHMARK(BM_NameParse);

// --- flat-name series (ISSUE-5 before/after comparison workloads) -----------

/// Reverse-map style name: many short labels, the worst case for
/// per-label heap allocation.
void BM_NameParseDeep(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::DnsName::parse("4.3.2.1.in-addr.arpa"));
  }
}
BENCHMARK(BM_NameParseDeep);

/// Copy + hash: what every cache lookup pays to build its Key.
void BM_NameCopyHash(benchmark::State& state) {
  const auto name = *dns::DnsName::parse("www.buzzfeed.com");
  for (auto _ : state) {
    dns::DnsName key = name;
    benchmark::DoNotOptimize(key.hash());
  }
}
BENCHMARK(BM_NameCopyHash);

/// Zone walk: parent()/is_within(), the resolver's best_server_for loop.
void BM_NameZoneWalk(benchmark::State& state) {
  const auto name = *dns::DnsName::parse("edge-17.cdn.example.com");
  const auto apex = *dns::DnsName::parse("example.com");
  for (auto _ : state) {
    dns::DnsName zone = name;
    size_t within = 0;
    while (!zone.is_root()) {
      if (zone.is_within(apex)) ++within;
      zone = zone.parent();
    }
    benchmark::DoNotOptimize(within);
  }
}
BENCHMARK(BM_NameZoneWalk);

void BM_CacheLookupHit(benchmark::State& state) {
  dns::Cache cache;
  const auto name = *dns::DnsName::parse("www.example.com");
  cache.insert(name, dns::RRType::kA,
               {dns::ResourceRecord::a(name, net::Ipv4Addr{1, 2, 3, 4}, 3600)},
               net::SimTime::zero());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.lookup(name, dns::RRType::kA, net::SimTime::from_seconds(1)));
  }
}
BENCHMARK(BM_CacheLookupHit);

/// The campaign's hop: a static name is a table handle, so the cache key
/// hashes and compares an id rather than label text.
void BM_CacheLookupHitInterned(benchmark::State& state) {
  dns::NameTable names;
  names.add(*dns::DnsName::parse("www.example.com"));
  names.freeze();
  const dns::DnsName& name =
      names.name(names.find(*dns::DnsName::parse("www.example.com")));
  dns::Cache cache;
  cache.insert(name, dns::RRType::kA,
               {dns::ResourceRecord::a(name, net::Ipv4Addr{1, 2, 3, 4}, 3600)},
               net::SimTime::zero());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.lookup(name, dns::RRType::kA, net::SimTime::from_seconds(1)));
  }
}
BENCHMARK(BM_CacheLookupHitInterned);

// --- cache series (ISSUE-5 before/after comparison workloads) ---------------

/// Hit-heavy lookups against a wide rrset (8 A records): the paper's CDN
/// names resolve to multi-record rrsets, and every hit must age TTLs.
void BM_CacheLookupHitWide(benchmark::State& state) {
  dns::Cache cache;
  const auto name = *dns::DnsName::parse("buzzfeed-www.fastedge.net");
  std::vector<dns::ResourceRecord> records;
  for (uint8_t i = 0; i < 8; ++i) {
    records.push_back(dns::ResourceRecord::a(
        name, net::Ipv4Addr{20, 1, 2, i}, 3600));
  }
  cache.insert(name, dns::RRType::kA, std::move(records), net::SimTime::zero());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.lookup(name, dns::RRType::kA, net::SimTime::from_seconds(1)));
  }
}
BENCHMARK(BM_CacheLookupHitWide);

/// Insert churn at advancing sim time: one insert per simulated second
/// into 30 s entries, so the cache holds about 30 live entries and every
/// insert's sweep finds the entry inserted 30 s earlier expired. This is
/// the expiry sweep's worst case: each insert scans every slot. Entries
/// borrow shared rrsets, as the campaign's do, so a steady-state insert
/// allocates nothing.
void BM_CacheExpiryChurn(benchmark::State& state) {
  constexpr size_t kNames = 4096;
  constexpr uint32_t kTtlS = 30;
  std::vector<dns::DnsName> names;
  std::vector<dns::Rrset> rrsets(kNames);
  std::vector<dns::Section> sections(kNames);
  names.reserve(kNames);
  for (size_t i = 0; i < kNames; ++i) {
    names.push_back(
        *dns::DnsName::parse("host-" + std::to_string(i) + ".example.com"));
    rrsets[i].add(
        dns::ResourceRecord::a(names[i], net::Ipv4Addr{1, 2, 3, 4}, kTtlS));
    sections[i].append(rrsets[i], 0);
  }
  dns::Cache cache;
  int64_t now_s = 0;
  size_t next = 0;
  for (auto _ : state) {
    cache.insert(names[next], dns::RRType::kA, sections[next],
                 net::SimTime::from_seconds(static_cast<double>(++now_s)));
    next = (next + 1) % kNames;
  }
  benchmark::DoNotOptimize(cache.size());
}
BENCHMARK(BM_CacheExpiryChurn);

void BM_RecursiveResolution(benchmark::State& state) {
  // Mini-world: hub + hierarchy + one zone + one resolver.
  net::Topology topo;
  dns::ServerRegistry registry;
  net::Node hub;
  hub.name = "hub";
  const net::NodeId hub_id = topo.add_node(hub);
  const auto attach = [&](const std::string& name, net::NodeKind kind,
                          const net::GeoPoint& loc, net::Ipv4Addr ip) {
    net::Node node;
    node.name = name;
    node.kind = kind;
    node.location = loc;
    node.ip = ip;
    const net::NodeId id = topo.add_node(node);
    topo.add_link(id, hub_id, net::LatencyModel::fixed(1.0));
    return id;
  };
  dns::DnsHierarchy hierarchy(attach, &registry);
  auto& zone = hierarchy.create_zone(*dns::DnsName::parse("example.com"),
                                     {40, -74}, net::Ipv4Addr{50, 0, 0, 1});
  const auto host = *dns::DnsName::parse("www.example.com");
  zone.add_record(dns::ResourceRecord::a(host, net::Ipv4Addr{9, 8, 7, 6}, 30));

  const net::NodeId rnode =
      attach("resolver", net::NodeKind::kResolver, {41, -87}, net::Ipv4Addr{});
  dns::RecursiveResolver resolver("bench", rnode, net::Ipv4Addr{9, 9, 9, 9},
                                  &topo, &registry, hierarchy.root_ip());
  topo.freeze();
  // One device's state across every iteration holds the resolver's cache
  // and query ids, as one campaign device's timeline does.
  net::DeviceState device(1);
  auto rng = bench::bench_rng("micro_dns/resolve-cold");
  int64_t t = 0;
  for (auto _ : state) {
    // Advance past the 30 s TTL so every iteration resolves cold.
    t += 31'000'000;
    benchmark::DoNotOptimize(
        resolver.resolve(host, dns::RRType::kA, net::SimTime{t}, rng, device));
  }
}
BENCHMARK(BM_RecursiveResolution);

void BM_CachedResolution(benchmark::State& state) {
  net::Topology topo;
  dns::ServerRegistry registry;
  net::Node hub;
  hub.name = "hub";
  const net::NodeId hub_id = topo.add_node(hub);
  const auto attach = [&](const std::string& name, net::NodeKind kind,
                          const net::GeoPoint& loc, net::Ipv4Addr ip) {
    net::Node node;
    node.name = name;
    node.kind = kind;
    node.location = loc;
    node.ip = ip;
    const net::NodeId id = topo.add_node(node);
    topo.add_link(id, hub_id, net::LatencyModel::fixed(1.0));
    return id;
  };
  dns::DnsHierarchy hierarchy(attach, &registry);
  auto& zone = hierarchy.create_zone(*dns::DnsName::parse("example.com"),
                                     {40, -74}, net::Ipv4Addr{50, 0, 0, 1});
  const auto host = *dns::DnsName::parse("www.example.com");
  zone.add_record(dns::ResourceRecord::a(host, net::Ipv4Addr{9, 8, 7, 6}, 3600));
  const net::NodeId rnode =
      attach("resolver", net::NodeKind::kResolver, {41, -87}, net::Ipv4Addr{});
  dns::RecursiveResolver resolver("bench", rnode, net::Ipv4Addr{9, 9, 9, 9},
                                  &topo, &registry, hierarchy.root_ip());
  topo.freeze();
  net::DeviceState device(1);  // one device's cache, warm across iterations
  auto rng = bench::bench_rng("micro_dns/resolve-warm");
  resolver.resolve(host, dns::RRType::kA, net::SimTime::zero(), rng, device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve(
        host, dns::RRType::kA, net::SimTime::from_seconds(1), rng, device));
  }
}
BENCHMARK(BM_CachedResolution);

/// BM_CachedResolution on the campaign path: zones bound to a frozen name
/// table and the query name a table handle.
void BM_CachedResolutionInterned(benchmark::State& state) {
  // Declared first: the zones keep a pointer to the table.
  dns::NameTable names;
  net::Topology topo;
  dns::ServerRegistry registry;
  net::Node hub;
  hub.name = "hub";
  const net::NodeId hub_id = topo.add_node(hub);
  const auto attach = [&](const std::string& name, net::NodeKind kind,
                          const net::GeoPoint& loc, net::Ipv4Addr ip) {
    net::Node node;
    node.name = name;
    node.kind = kind;
    node.location = loc;
    node.ip = ip;
    const net::NodeId id = topo.add_node(node);
    topo.add_link(id, hub_id, net::LatencyModel::fixed(1.0));
    return id;
  };
  dns::DnsHierarchy hierarchy(attach, &registry);
  auto& zone = hierarchy.create_zone(*dns::DnsName::parse("example.com"),
                                     {40, -74}, net::Ipv4Addr{50, 0, 0, 1});
  const auto host = *dns::DnsName::parse("www.example.com");
  zone.add_record(dns::ResourceRecord::a(host, net::Ipv4Addr{9, 8, 7, 6}, 3600));
  // Bind the hierarchy to its names as a World does, and query by handle.
  hierarchy.collect_names(names);
  names.freeze();
  hierarchy.bind_names(names);
  dns::DnsName interned = host;
  names.intern(interned);
  const net::NodeId rnode =
      attach("resolver", net::NodeKind::kResolver, {41, -87}, net::Ipv4Addr{});
  dns::RecursiveResolver resolver("bench", rnode, net::Ipv4Addr{9, 9, 9, 9},
                                  &topo, &registry, hierarchy.root_ip());
  topo.freeze();
  net::DeviceState device(1);  // one device's cache, warm across iterations
  auto rng = bench::bench_rng("micro_dns/resolve-warm-interned");
  resolver.resolve(interned, dns::RRType::kA, net::SimTime::zero(), rng,
                   device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve(
        interned, dns::RRType::kA, net::SimTime::from_seconds(1), rng,
        device));
  }
}
BENCHMARK(BM_CachedResolutionInterned);

}  // namespace

int main(int argc, char** argv) {
  return curtain::bench::run_micro_benchmarks("micro_dns", argc, argv);
}
