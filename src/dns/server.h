// The DNS server interface and the registry binding servers to topology
// nodes.
//
// In-process servers exchange typed messages: a caller builds a `Message`
// query, the server answers with a `Message`. Nothing on the resolution
// path reads packet bytes (no size limit, truncation or byte-level
// record), so no hop pays for the RFC 1035 codec. `serve_wire()` is the
// one byte-level entry point: it decodes, answers FORMERR to a packet that
// does not decode or carries no question, serves, and encodes. Tests and
// tools use it to prove the two paths agree. `server_side_ms` carries the
// latency the server itself incurred (a recursive resolver's upstream
// round trips); the caller adds its own transport RTT to the server.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "dns/message.h"
#include "net/device_state.h"
#include "net/ipv4.h"
#include "net/rng.h"
#include "net/time.h"
#include "net/topology.h"

namespace curtain::dns {

struct ServedResponse {
  Message message;
  double server_side_ms = 0.0;
};

struct WireResponse {
  std::vector<uint8_t> wire;
  double server_side_ms = 0.0;
};

class DnsServer {
 public:
  virtual ~DnsServer() = default;

  /// Answers `query`, arriving from `source_ip` at time `now` on behalf of
  /// `device`, whose state (net/device_state.h) holds what this server
  /// keeps per device. The query carries a question. The response echoes
  /// the query's id and question.
  virtual ServedResponse serve(const Message& query, net::Ipv4Addr source_ip,
                               net::SimTime now, net::Rng& rng,
                               net::DeviceState& device) = 0;

  /// Wire adapter over serve(): decodes `query_wire`, answers FORMERR
  /// (echoing the id when the header decodes) to a packet that does not
  /// decode or carries no question, and encodes the response. A malformed
  /// packet never reaches serve() and draws nothing from `rng`.
  WireResponse serve_wire(std::span<const uint8_t> query_wire,
                          net::Ipv4Addr source_ip, net::SimTime now,
                          net::Rng& rng, net::DeviceState& device);

  /// Topology node this server is bound to.
  virtual net::NodeId node() const = 0;
  /// Address the server answers on.
  virtual net::Ipv4Addr ip() const = 0;

  /// For anycast services: the instance node a packet from `source` is
  /// routed to at time `now`. Unicast servers (the default) have a single
  /// node; anycast routing can drift over time (tunneling, BGP churn).
  virtual net::NodeId node_for(net::Ipv4Addr source, net::SimTime now) const {
    (void)source;
    (void)now;
    return node();
  }
};

/// Maps server IPs to server instances so resolvers can "send" packets.
/// Non-owning: the world owns its servers and outlives the registry users.
class ServerRegistry {
 public:
  void add(DnsServer* server) { by_ip_[server->ip().value()] = server; }

  DnsServer* find(net::Ipv4Addr ip) const {
    const auto it = by_ip_.find(ip.value());
    return it == by_ip_.end() ? nullptr : it->second;
  }

  size_t size() const { return by_ip_.size(); }

 private:
  std::unordered_map<uint32_t, DnsServer*> by_ip_;
};

}  // namespace curtain::dns
