#include "measure/resolver_ident.h"

namespace curtain::measure {

dns::DnsName ResolverIdentifier::probe_name(uint64_t device_id,
                                            uint64_t counter) const {
  auto adns = apex_.child("adns");
  std::string device_label = "d";
  device_label += std::to_string(device_id);
  std::string probe_label = "r";
  probe_label += std::to_string(counter);
  auto device = adns->child(device_label);
  auto name = device->child(probe_label);
  return *name;
}

std::optional<net::Ipv4Addr> ResolverIdentifier::extract(
    const dns::Section& answers) {
  for (const dns::RecordView rr : answers) {
    if (const auto* a = std::get_if<dns::ARecord>(&rr.rdata)) {
      return a->address;
    }
  }
  return std::nullopt;
}

void ResolverIdentifier::install_handler(dns::AuthoritativeServer& adns) {
  adns.set_dynamic_handler(
      [](const dns::Question& question, net::Ipv4Addr resolver_ip,
         const std::optional<dns::EdnsClientSubnet>& /*ecs*/,
         net::SimTime /*now*/, net::Rng& /*rng*/) -> dns::DynamicAnswer {
        if (question.type != dns::RRType::kA) return std::nullopt;
        // TTL 0: never cached, every query reaches us (§3.2).
        return std::vector<dns::ResourceRecord>{
            dns::ResourceRecord::a(question.name, resolver_ip, 0)};
      },
      /*dynamic_ttl_s=*/0);
}

}  // namespace curtain::measure
