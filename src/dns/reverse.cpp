#include "dns/reverse.h"

#include <cctype>

namespace curtain::dns {

DnsName reverse_name(net::Ipv4Addr address) {
  std::vector<std::string> labels;
  labels.reserve(6);
  for (int octet = 3; octet >= 0; --octet) {
    labels.push_back(std::to_string(address.octet(octet)));
  }
  labels.emplace_back("in-addr");
  labels.emplace_back("arpa");
  return *DnsName::from_labels(std::move(labels));
}

std::optional<net::Ipv4Addr> parse_reverse_name(const DnsName& name) {
  if (name.label_count() != 6 || name.label(4) != "in-addr" ||
      name.label(5) != "arpa") {
    return std::nullopt;
  }
  uint32_t value = 0;
  // label(0) is the least significant octet ("d" in d.c.b.a.in-addr.arpa).
  for (size_t i = 0; i < 4; ++i) {
    unsigned octet = 0;
    const auto label = name.label(i);
    if (label.empty() || label.size() > 3) return std::nullopt;
    for (const char c : label) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
      octet = octet * 10 + static_cast<unsigned>(c - '0');
    }
    if (octet > 255) return std::nullopt;
    value |= octet << (8 * i);
  }
  return net::Ipv4Addr(value);
}

std::string hostname_label(const std::string& node_name) {
  std::string label;
  label.reserve(node_name.size());
  bool last_dash = false;
  for (const char c : node_name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      label += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      last_dash = false;
    } else if (!last_dash && !label.empty()) {
      label += '-';
      last_dash = true;
    }
  }
  while (!label.empty() && label.back() == '-') label.pop_back();
  if (label.empty()) label = "host";
  if (label.size() > 63) label.resize(63);
  return label;
}

DnsName ptr_target(const net::Node& node, const DnsName& suffix) {
  const auto child = suffix.child(hostname_label(node.name));
  return child ? *child : suffix;
}

void install_reverse_zone(AuthoritativeServer& server,
                          const net::Topology* topology, DnsName suffix) {
  server.set_dynamic_handler(
      [topology, suffix](const Question& question, net::Ipv4Addr,
                         const std::optional<EdnsClientSubnet>&, net::SimTime,
                         net::Rng&) -> DynamicAnswer {
        if (question.type != RRType::kPTR) return std::nullopt;
        const auto address = parse_reverse_name(question.name);
        if (!address) return std::nullopt;
        const net::NodeId node_id = topology->find_by_ip(*address);
        if (node_id == net::kInvalidNode) return std::nullopt;
        const net::Node& node = topology->node(node_id);
        return std::vector<ResourceRecord>{ResourceRecord{
            question.name, RRClass::kIN, 3600,
            PtrRecord{ptr_target(node, suffix)}}};
      },
      /*dynamic_ttl_s=*/3600);
}

}  // namespace curtain::dns
