// Resolver identification via a controlled authoritative DNS
// (the technique of Mao et al., used by the paper in §3.2).
//
// The client resolves a *unique* name under a zone whose ADNS answers with
// the address of whatever resolver sent it the query. Uniqueness defeats
// every cache on the path, so each probe reveals the external-facing
// resolver serving the client right now.
#pragma once

#include <optional>

#include "dns/authoritative.h"
#include "dns/name.h"
#include "dns/rrset.h"

namespace curtain::measure {

class ResolverIdentifier {
 public:
  /// `apex` is the research zone ("curtain-study.net").
  explicit ResolverIdentifier(dns::DnsName apex) : apex_(std::move(apex)) {}

  const dns::DnsName& apex() const { return apex_; }

  /// Unique probe name: r<counter>.d<device>.adns.<apex>.
  dns::DnsName probe_name(uint64_t device_id, uint64_t counter) const;

  /// The resolver address from an identification answer (the A record the
  /// ADNS synthesized); nullopt if the resolution failed.
  static std::optional<net::Ipv4Addr> extract(const dns::Section& answers);

  /// Installs the identification behaviour on the research zone's ADNS:
  /// any A query under "adns.<apex>" is answered with the querying
  /// resolver's own address, TTL 0.
  static void install_handler(dns::AuthoritativeServer& adns);

 private:
  dns::DnsName apex_;
};

}  // namespace curtain::measure
