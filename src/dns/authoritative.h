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
// served answer copies no record.
//
// Serving looks names up by NameId (dns/name_table.h). bind_names() swaps
// every stored name for a table handle and indexes the zone by id: each
// static name's rrsets, and the delegation covering it (precomputed along
// the name's ancestor chain), are array reads. A World binds all of its
// zones to its one table, after which their data is fixed. A server built
// by hand serves from a table of its own names, made at its first query
// and remade at the first query after its data changes (earlier tables
// live on, since caches may hold their handles). A question whose name is
// not static (a resolver-identification probe, a PTR name) has no rrsets,
// and takes the delegation of its deepest static ancestor.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>

#include "dns/message.h"
#include "dns/name_table.h"
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

  /// Adds every name the zone's data mentions to `names` (before it
  /// freezes).
  void collect_names(NameTable& names) const;
  /// Swaps the zone's names for handles of `names` (frozen, holding
  /// collect_names()'s names, and outliving the server) and indexes the
  /// zone by id. Once per server, before its first query; the zone's data
  /// is fixed from then on.
  void bind_names(const NameTable& names);

  // DnsServer:
  /// Keeps nothing per device.
  ServedResponse serve(const Message& query, net::Ipv4Addr source_ip,
                       net::SimTime now, net::Rng& rng,
                       net::DeviceState& device) override;
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

  static constexpr uint32_t kNone = UINT32_MAX;

  /// What the zone holds for one static name.
  struct NameSlot {
    uint32_t first_rrset = kNone;  ///< the name's run in rrsets_
    uint32_t rrset_count = 0;
    /// The first-added delegation whose apex is the name or an ancestor.
    uint32_t delegation = kNone;
  };

  /// Indexes the zone by a new table of its own names (see the header).
  void index_own_names();
  void index(const NameTable& names);
  /// Marks a hand-built server's index stale; a bound World zone is fixed.
  void data_changed(const char* what);
  const Delegation* find_delegation(NameId id) const;
  const Rrset* find_static(NameId id, RRType type) const;

  DnsName apex_;
  net::NodeId node_;
  net::Ipv4Addr ip_;
  /// Static rrsets, one per (name, type) in add order until bound, then
  /// sorted by (id, type); each keeps its records' order.
  std::vector<Rrset> rrsets_;
  /// A deque: responses borrow each delegation's rrsets, which must not
  /// move when a later delegation is added.
  std::deque<Delegation> delegations_;
  DynamicHandler dynamic_handler_;
  uint32_t dynamic_ttl_s_ = 30;
  Rrset soa_;
  const NameTable* names_ = nullptr;  ///< the table slots_ is indexed by
  bool bound_ = false;                ///< by bind_names(): data is fixed
  std::atomic<bool> indexed_{false};  ///< slots_ reflects the zone data
  std::mutex index_mutex_;            ///< serializes index_own_names()
  /// Tables a hand-built server made of its own names; the last is names_.
  std::deque<NameTable> own_names_;
  std::vector<NameSlot> slots_;  ///< indexed by NameId
};

}  // namespace curtain::dns
