#include "dns/hierarchy.h"

namespace curtain::dns {
namespace {

// Conventional well-known infrastructure addresses for the simulation.
const net::Ipv4Addr kRootIp{198, 41, 0, 4};  // a.root-servers.net's real IP

net::Ipv4Addr tld_ip(uint32_t index) {
  // 192.5.6.0/24 hosts TLD servers (gtld-servers style).
  return net::Ipv4Addr{192, 5, 6, static_cast<uint8_t>(10 + index)};
}

}  // namespace

DnsHierarchy::DnsHierarchy(HostFactory make_host, ServerRegistry* registry)
    : make_host_(std::move(make_host)), registry_(registry) {
  // The root sits in northern Virginia, as a nod to a.root-servers.net.
  const net::GeoPoint location{38.9, -77.5};
  const net::NodeId node =
      make_host_("root-server", net::NodeKind::kAuthServer, location, kRootIp);
  root_ = std::make_unique<AuthoritativeServer>(DnsName{}, node, kRootIp);
  registry_->add(root_.get());
}

AuthoritativeServer& DnsHierarchy::tld(const std::string& label) {
  const auto it = tlds_.find(label);
  if (it != tlds_.end()) return *it->second;

  const net::Ipv4Addr ip = tld_ip(next_tld_host_++);
  // Spread TLD servers across a few US metros; exact placement is
  // immaterial (resolvers cache TLD NS within one query).
  const auto& metros = net::us_metros();
  const net::GeoPoint location = metros[tlds_.size() % metros.size()].location;
  const net::NodeId node = make_host_("tld-" + label, net::NodeKind::kAuthServer,
                                      location, ip);
  const DnsName apex = *DnsName::parse(label);
  auto server = std::make_unique<AuthoritativeServer>(apex, node, ip);
  registry_->add(server.get());

  const DnsName ns_name = *apex.child("tld-ns");
  root_->delegate(apex, ns_name, ip);

  return *tlds_.emplace(label, std::move(server)).first->second;
}

AuthoritativeServer& DnsHierarchy::create_zone(const DnsName& apex,
                                               const net::GeoPoint& location,
                                               net::Ipv4Addr ip) {
  const net::NodeId node = make_host_("adns-" + apex.to_string(),
                                      net::NodeKind::kAuthServer, location, ip);
  zones_.push_back(std::make_unique<AuthoritativeServer>(apex, node, ip));
  AuthoritativeServer& server = *zones_.back();
  registry_->add(&server);
  delegate_zone(server);
  return server;
}

void DnsHierarchy::delegate_zone(AuthoritativeServer& zone_server) {
  const DnsName& apex = zone_server.apex();
  const std::string tld_label(apex.label(apex.label_count() - 1));
  const DnsName ns_name = *apex.child("ns1");
  tld(tld_label).delegate(apex, ns_name, zone_server.ip());
}

void DnsHierarchy::collect_names(NameTable& names) const {
  root_->collect_names(names);
  for (const auto& [label, server] : tlds_) server->collect_names(names);
  for (const auto& zone : zones_) zone->collect_names(names);
}

void DnsHierarchy::bind_names(const NameTable& names) {
  root_->bind_names(names);
  for (auto& [label, server] : tlds_) server->bind_names(names);
  for (auto& zone : zones_) zone->bind_names(names);
}

}  // namespace curtain::dns
