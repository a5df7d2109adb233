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
//
// Zone data — static rrsets, each delegation's NS and glue, the SOA — is
// held as immutable rrsets (dns/rrset.h) that responses borrow, so a
// served answer copies no record. The zone is built before it serves:
// add_record, delegate and set_soa must not run once queries arrive.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "dns/message.h"
#include "dns/server.h"

namespace curtain::dns {

/// What a dynamic handler answers: nothing (the server then answers
/// NXDOMAIN or NODATA), records built for this one query, or an rrset the
/// handler's owner keeps for the World's lifetime (the CDN's per-cluster
/// answers), which the response borrows instead of copying.
struct DynamicAnswer {
  DynamicAnswer(std::nullopt_t) {}
  DynamicAnswer(std::vector<ResourceRecord> records)
      : owned(std::move(records)) {}
  DynamicAnswer(std::optional<std::vector<ResourceRecord>> records)
      : owned(std::move(records)) {}
  DynamicAnswer(const Rrset* rrset) : shared(rrset) {}

  const Rrset* shared = nullptr;  ///< null: see `owned`
  std::optional<std::vector<ResourceRecord>> owned;
};

/// Computes an answer for a question the static zone data does not cover.
using DynamicHandler = std::function<DynamicAnswer(
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
  /// Owned records with TTL 0 are served with `dynamic_ttl_s`; a shared
  /// rrset is served as it is.
  void set_dynamic_handler(DynamicHandler handler, uint32_t dynamic_ttl_s);

  /// SOA used in negative responses (a default is synthesized if unset).
  void set_soa(SoaRecord soa, uint32_t ttl_s = 3600);

  // DnsServer:
  ServedResponse serve(const Message& query, net::Ipv4Addr source_ip,
                       net::SimTime now, net::Rng& rng) override;
  net::NodeId node() const override { return node_; }
  net::Ipv4Addr ip() const override { return ip_; }

 private:
  struct Delegation {
    DnsName apex;
    Rrset ns;
    Rrset glue;
  };

  /// Fills `response` for `question`; follows in-zone CNAME chains.
  void answer_question(const Question& question, net::Ipv4Addr source_ip,
                       const std::optional<EdnsClientSubnet>& ecs,
                       net::SimTime now, net::Rng& rng, Message& response);

  const Delegation* find_delegation(const DnsName& name) const;
  const Rrset* find_static(const DnsName& name, RRType type) const;
  bool name_exists(const DnsName& name) const;

  DnsName apex_;
  net::NodeId node_;
  net::Ipv4Addr ip_;
  // Keyed by (name, type); std::map keeps deterministic iteration for tests.
  std::map<std::pair<DnsName, RRType>, Rrset> records_;
  /// A deque: responses borrow each delegation's rrsets, which must not
  /// move when a later delegation is added.
  std::deque<Delegation> delegations_;
  DynamicHandler dynamic_handler_;
  uint32_t dynamic_ttl_s_ = 30;
  Rrset soa_;
};

}  // namespace curtain::dns
