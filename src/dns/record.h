// Resource records (RFC 1035 §3.2, §3.3, §3.4).
//
// RDATA is a closed variant over the types the study exercises: A (replica
// addresses), CNAME (CDN indirection — the paper selected domains *because*
// they resolve through CNAMEs), NS/SOA (delegation and zone metadata) and
// TXT (the resolver-identification ADNS answers TXT + A).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "dns/name.h"
#include "net/ipv4.h"

namespace curtain::dns {

class NameTable;

enum class RRType : uint16_t {
  kA = 1,
  kNS = 2,
  kCNAME = 5,
  kSOA = 6,
  kPTR = 12,
  kTXT = 16,
};

enum class RRClass : uint16_t { kIN = 1 };

const char* rrtype_name(RRType type);

struct ARecord {
  net::Ipv4Addr address;
  bool operator==(const ARecord&) const = default;
};

struct CnameRecord {
  DnsName target;
  bool operator==(const CnameRecord&) const = default;
};

struct NsRecord {
  DnsName nameserver;
  bool operator==(const NsRecord&) const = default;
};

struct PtrRecord {
  DnsName target;
  bool operator==(const PtrRecord&) const = default;
};

struct TxtRecord {
  // RFC 1035: one or more <character-string>s, each up to 255 octets.
  std::vector<std::string> strings;
  bool operator==(const TxtRecord&) const = default;
};

struct SoaRecord {
  DnsName mname;   ///< primary nameserver
  DnsName rname;   ///< responsible mailbox
  uint32_t serial = 0;
  uint32_t refresh = 0;
  uint32_t retry = 0;
  uint32_t expire = 0;
  uint32_t minimum = 0;  ///< negative-caching TTL (RFC 2308)
  bool operator==(const SoaRecord&) const = default;
};

using Rdata = std::variant<ARecord, CnameRecord, NsRecord, PtrRecord, TxtRecord,
                           SoaRecord>;

/// The RRType implied by an Rdata alternative.
RRType rdata_type(const Rdata& rdata);

struct ResourceRecord {
  DnsName name;
  RRClass klass = RRClass::kIN;
  uint32_t ttl = 0;  ///< seconds
  Rdata rdata = ARecord{};

  RRType type() const { return rdata_type(rdata); }

  static ResourceRecord a(const DnsName& name, net::Ipv4Addr addr, uint32_t ttl);
  static ResourceRecord cname(const DnsName& name, const DnsName& target,
                              uint32_t ttl);
  static ResourceRecord ns(const DnsName& zone, const DnsName& server,
                           uint32_t ttl);
  static ResourceRecord txt(const DnsName& name, std::vector<std::string> strings,
                            uint32_t ttl);
  static ResourceRecord soa(const DnsName& zone, SoaRecord soa, uint32_t ttl);

  bool operator==(const ResourceRecord&) const = default;

  /// Adds the owner and every name in the rdata to `names` (World build).
  void collect_names(NameTable& names) const;
  /// Swaps the owner and the rdata names for `names`' handles where they
  /// are static. Only before the record is served.
  void intern_names(const NameTable& names);

  /// Human-readable zone-file-ish line for logs and tests.
  std::string to_string() const;
};

}  // namespace curtain::dns
