// Authoritative DNS server.
//
// Serves one zone from static records plus an optional dynamic handler.
// Dynamic handlers are how the study's two special ADNSes work:
//   * the CDN ADNS computes A records from the *querying resolver's* IP
//     (replica selection, paper §2.2), and
//   * the research ADNS answers with the querying resolver's own address
//     (resolver identification à la Mao et al., §3.2).
// The server also publishes NS delegations for child zones so recursive
// resolvers can walk root → TLD → zone like the real hierarchy.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <optional>

#include "dns/cache.h"
#include "dns/message.h"
#include "dns/server.h"

namespace curtain::dns {

/// Computes an answer for a question the static zone data does not cover.
/// Returning nullopt yields NXDOMAIN.
using DynamicHandler = std::function<std::optional<std::vector<ResourceRecord>>(
    const Question& question, net::Ipv4Addr resolver_ip,
    const std::optional<EdnsClientSubnet>& ecs, net::SimTime now,
    net::Rng& rng)>;

class AuthoritativeServer : public DnsServer {
 public:
  /// `apex` is the zone this server is authoritative for; `node` / `ip`
  /// bind it to the topology.
  AuthoritativeServer(DnsName apex, net::NodeId node, net::Ipv4Addr ip);

  const DnsName& apex() const { return apex_; }

  /// Adds a static record; the record's name must be within the apex.
  void add_record(ResourceRecord rr);

  /// Registers a delegation: queries for names within `child_apex` get a
  /// referral (authority NS + glue A) instead of an answer.
  void delegate(const DnsName& child_apex, const DnsName& ns_name,
                net::Ipv4Addr ns_addr, uint32_t ttl_s = 172800);

  /// Handler consulted when static data has no records for the qname.
  void set_dynamic_handler(DynamicHandler handler, uint32_t dynamic_ttl_s);

  /// SOA used in negative responses (a default is synthesized if unset).
  void set_soa(SoaRecord soa, uint32_t ttl_s = 3600);

  // DnsServer:
  ServedResponse serve(const Message& query, net::Ipv4Addr source_ip,
                       net::SimTime now, net::Rng& rng) override;
  net::NodeId node() const override { return node_; }
  net::Ipv4Addr ip() const override { return ip_; }

  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }

 private:
  struct Delegation {
    DnsName apex;
    ResourceRecord ns;
    ResourceRecord glue;
  };

  /// Fills `response` for `question`; follows in-zone CNAME chains.
  void answer_question(const Question& question, net::Ipv4Addr source_ip,
                       const std::optional<EdnsClientSubnet>& ecs,
                       net::SimTime now, net::Rng& rng, Message& response);

  const Delegation* find_delegation(const DnsName& name) const;
  std::vector<ResourceRecord> find_static(const DnsName& name, RRType type) const;
  bool name_exists(const DnsName& name) const;

  DnsName apex_;
  net::NodeId node_;
  net::Ipv4Addr ip_;
  // Keyed by (name, type); std::map keeps deterministic iteration for tests.
  std::map<std::pair<DnsName, RRType>, std::vector<ResourceRecord>> records_;
  std::vector<Delegation> delegations_;
  DynamicHandler dynamic_handler_;
  uint32_t dynamic_ttl_s_ = 30;
  ResourceRecord soa_rr_;
  /// Atomic: authoritative servers are shared world state queried by
  /// concurrent campaign shards.
  std::atomic<uint64_t> queries_served_{0};
};

}  // namespace curtain::dns
