#include "dns/record.h"

#include "dns/name_table.h"
#include "util/strings.h"

namespace curtain::dns {

const char* rrtype_name(RRType type) {
  switch (type) {
    case RRType::kA: return "A";
    case RRType::kNS: return "NS";
    case RRType::kCNAME: return "CNAME";
    case RRType::kSOA: return "SOA";
    case RRType::kPTR: return "PTR";
    case RRType::kTXT: return "TXT";
  }
  return "TYPE?";
}

RRType rdata_type(const Rdata& rdata) {
  struct Visitor {
    RRType operator()(const ARecord&) const { return RRType::kA; }
    RRType operator()(const CnameRecord&) const { return RRType::kCNAME; }
    RRType operator()(const NsRecord&) const { return RRType::kNS; }
    RRType operator()(const PtrRecord&) const { return RRType::kPTR; }
    RRType operator()(const TxtRecord&) const { return RRType::kTXT; }
    RRType operator()(const SoaRecord&) const { return RRType::kSOA; }
  };
  return std::visit(Visitor{}, rdata);
}

ResourceRecord ResourceRecord::a(const DnsName& name, net::Ipv4Addr addr,
                                 uint32_t ttl) {
  return ResourceRecord{name, RRClass::kIN, ttl, ARecord{addr}};
}

ResourceRecord ResourceRecord::cname(const DnsName& name, const DnsName& target,
                                     uint32_t ttl) {
  return ResourceRecord{name, RRClass::kIN, ttl, CnameRecord{target}};
}

ResourceRecord ResourceRecord::ns(const DnsName& zone, const DnsName& server,
                                  uint32_t ttl) {
  return ResourceRecord{zone, RRClass::kIN, ttl, NsRecord{server}};
}

ResourceRecord ResourceRecord::txt(const DnsName& name,
                                   std::vector<std::string> strings,
                                   uint32_t ttl) {
  return ResourceRecord{name, RRClass::kIN, ttl, TxtRecord{std::move(strings)}};
}

ResourceRecord ResourceRecord::soa(const DnsName& zone, SoaRecord soa,
                                   uint32_t ttl) {
  return ResourceRecord{zone, RRClass::kIN, ttl, std::move(soa)};
}

namespace {

/// Calls `fn` on every name field of the rdata.
template <typename Rd, typename Fn>
void for_each_rdata_name(Rd& rdata, Fn&& fn) {
  if (auto* r = std::get_if<CnameRecord>(&rdata)) fn(r->target);
  if (auto* r = std::get_if<NsRecord>(&rdata)) fn(r->nameserver);
  if (auto* r = std::get_if<PtrRecord>(&rdata)) fn(r->target);
  if (auto* r = std::get_if<SoaRecord>(&rdata)) {
    fn(r->mname);
    fn(r->rname);
  }
}

}  // namespace

void ResourceRecord::collect_names(NameTable& names) const {
  names.add(name);
  for_each_rdata_name(rdata, [&](const DnsName& n) { names.add(n); });
}

void ResourceRecord::intern_names(const NameTable& names) {
  names.intern(name);
  for_each_rdata_name(rdata, [&](DnsName& n) { names.intern(n); });
}


std::string ResourceRecord::to_string() const {
  std::string out = name.to_string() + " " + std::to_string(ttl) + " IN " +
                    rrtype_name(type()) + " ";
  struct Visitor {
    std::string operator()(const ARecord& r) const { return r.address.to_string(); }
    std::string operator()(const CnameRecord& r) const { return r.target.to_string(); }
    std::string operator()(const NsRecord& r) const { return r.nameserver.to_string(); }
    std::string operator()(const PtrRecord& r) const { return r.target.to_string(); }
    std::string operator()(const TxtRecord& r) const {
      std::string s;
      for (size_t i = 0; i < r.strings.size(); ++i) {
        if (i != 0) s += ' ';
        s += '"' + r.strings[i] + '"';
      }
      return s;
    }
    std::string operator()(const SoaRecord& r) const {
      return r.mname.to_string() + " " + r.rname.to_string() + " " +
             std::to_string(r.serial);
    }
  };
  return out + std::visit(Visitor{}, rdata);
}

}  // namespace curtain::dns
