// The DNS delegation hierarchy: a root server, TLD servers created on
// demand, and zone registration that wires NS + glue delegations so a
// RecursiveResolver can iterate root → TLD → zone exactly like production
// resolvers do.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dns/authoritative.h"
#include "dns/server.h"
#include "net/geo.h"

namespace curtain::dns {

/// World-builder callback: creates a topology node for an infrastructure
/// host (attaching it to the backbone) and returns its id.
using HostFactory = std::function<net::NodeId(
    const std::string& name, net::NodeKind kind, const net::GeoPoint& location,
    net::Ipv4Addr ip)>;

class DnsHierarchy {
 public:
  /// `make_host` is invoked for the root and each TLD server; the registry
  /// is borrowed and receives every server created here.
  DnsHierarchy(HostFactory make_host, ServerRegistry* registry);

  net::Ipv4Addr root_ip() const { return root_->ip(); }
  AuthoritativeServer& root() { return *root_; }

  /// TLD server for `label` ("com", "net", "kr"), created on first use.
  AuthoritativeServer& tld(const std::string& label);

  /// Creates an authoritative server for `apex` at `location` with address
  /// `ip`, and delegates to it from the appropriate TLD. The hierarchy
  /// retains ownership; the returned reference stays valid for its life.
  AuthoritativeServer& create_zone(const DnsName& apex,
                                   const net::GeoPoint& location,
                                   net::Ipv4Addr ip);

  /// Delegates to an externally owned zone server (must already be
  /// registered with the ServerRegistry).
  void delegate_zone(AuthoritativeServer& zone_server);

  /// Adds every name of the root, TLD and zone servers to `names`.
  void collect_names(NameTable& names) const;
  /// Binds the root, TLD and zone servers to `names` (frozen), before
  /// their first query (AuthoritativeServer::bind_names).
  void bind_names(const NameTable& names);

 private:
  HostFactory make_host_;
  ServerRegistry* registry_;
  std::unique_ptr<AuthoritativeServer> root_;
  std::map<std::string, std::unique_ptr<AuthoritativeServer>> tlds_;
  std::vector<std::unique_ptr<AuthoritativeServer>> zones_;
  uint32_t next_tld_host_ = 0;
};

}  // namespace curtain::dns
