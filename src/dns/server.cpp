#include "dns/server.h"

namespace curtain::dns {

WireResponse DnsServer::serve_wire(std::span<const uint8_t> query_wire,
                                   net::Ipv4Addr source_ip, net::SimTime now,
                                   net::Rng& rng,
                                   net::DeviceState& device) {
  const std::optional<Message> query = decode(query_wire);
  if (!query || !query->question) {
    Message failure;
    failure.header.id = query ? query->header.id : 0;
    failure.header.qr = true;
    failure.header.rcode = Rcode::kFormErr;
    return WireResponse{encode(failure), 0.0};
  }
  const ServedResponse served = serve(*query, source_ip, now, rng, device);
  return WireResponse{encode(served.message), served.server_side_ms};
}

}  // namespace curtain::dns
