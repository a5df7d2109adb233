// Stub resolver: the client half of a resolution.
//
// Builds the query, "sends" it to a configured resolver, and reports the
// end-to-end resolution time (client RTT to the resolver + whatever the
// resolver spent upstream). Devices add their radio-access latency on top.
#pragma once

#include "dns/message.h"
#include "dns/server.h"

namespace curtain::dns {

struct StubResult {
  bool responded = false;
  Rcode rcode = Rcode::kServFail;
  Section answers;  ///< as the resolver answered (dns/rrset.h)
  /// End-to-end resolution time as the client perceives it.
  double total_ms = 0.0;

  std::vector<net::Ipv4Addr> addresses() const;
  /// Appends the A-record addresses, in answer order, to any container
  /// with push_back (the measurement record's inline SmallVec).
  template <typename Out>
  void append_addresses(Out& out) const {
    for (const RecordView rr : answers) {
      if (const auto* a = std::get_if<ARecord>(&rr.rdata)) {
        out.push_back(a->address);
      }
    }
  }
};

class StubResolver {
 public:
  /// `node` is where the client attaches to the wired topology (a device's
  /// gateway, or a vantage-point host). Borrowed references must outlive us.
  StubResolver(net::NodeId node, net::Ipv4Addr client_ip,
               const net::Topology& topology, const ServerRegistry& registry);

  /// Queries the server at `resolver_ip` for (name, type) on behalf of
  /// `device`. `extra_latency_ms` is prepended latency the transport
  /// cannot see (radio access for cellular clients).
  StubResult query(net::Ipv4Addr resolver_ip, const DnsName& name, RRType type,
                   net::SimTime now, net::Rng& rng, net::DeviceState& device,
                   double extra_latency_ms = 0.0);

 private:
  net::NodeId node_;
  net::Ipv4Addr client_ip_;
  const net::Topology& topology_;
  const ServerRegistry& registry_;
  uint16_t next_id_ = 1;
};

}  // namespace curtain::dns
