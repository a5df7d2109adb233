#include "dns/stub.h"

#include "obs/trace.h"

namespace curtain::dns {

std::vector<net::Ipv4Addr> StubResult::addresses() const {
  std::vector<net::Ipv4Addr> out;
  out.reserve(answers.size());
  append_addresses(out);
  return out;
}

StubResolver::StubResolver(net::NodeId node, net::Ipv4Addr client_ip,
                           const net::Topology& topology,
                           const ServerRegistry& registry)
    : node_(node), client_ip_(client_ip), topology_(topology),
      registry_(registry) {}

StubResult StubResolver::query(net::Ipv4Addr resolver_ip, const DnsName& name,
                               RRType type, net::SimTime now, net::Rng& rng,
                               net::DeviceState& device,
                               double extra_latency_ms) {
  StubResult result;
  result.total_ms = extra_latency_ms;
  // Top-level trace decomposition: the client-observed resolution time is
  // exactly radio_access + ldns (server-side work) + transport (stub↔LDNS
  // round trip), so the depth-0 spans of a ResolutionTrace partition it.
  const double t0 = now.millis();
  {
    obs::ScopedSpan access("radio_access", t0);
    access.finish(t0 + extra_latency_ms);
  }
  DnsServer* server = registry_.find(resolver_ip);
  if (server == nullptr) return result;
  const auto rtt =
      topology_.transport_rtt_ms(node_, server->node_for(client_ip_, now), rng);
  if (!rtt) return result;

  const Message query = Message::query(next_id_++, name, type);
  obs::ScopedSpan ldns("ldns", t0 + extra_latency_ms);
  ServedResponse served = server->serve(query, client_ip_, now, rng, device);
  const double after_server = t0 + extra_latency_ms + served.server_side_ms;
  ldns.finish(after_server);
  if (served.message.header.id != query.header.id) return result;

  {
    obs::ScopedSpan transport("transport", after_server);
    transport.finish(after_server + *rtt);
  }
  result.responded = true;
  result.rcode = served.message.header.rcode;
  result.answers = std::move(served.message.answers);
  result.total_ms += *rtt + served.server_side_ms;
  return result;
}

}  // namespace curtain::dns
