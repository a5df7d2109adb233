// DNS messages and the RFC 1035 wire codec (§4.1), including name
// compression (§4.1.4).
//
// In-process resolution exchanges `Message` values directly (dns/server.h);
// the codec runs only at the byte boundary, DnsServer::serve_wire(), which
// tests and tools use. Its fidelity is held by tests rather than by the
// campaign: every message shape the servers emit (referrals with glue,
// CNAME chains, ECS, NXDOMAIN with SOA) must round-trip through
// encode/decode unchanged, serve_wire() must answer exactly what serve()
// answers, and decode() must survive every truncation and bit flip of
// those packets (dns_wire_equivalence_test, dns_message_test).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/record.h"
#include "dns/rrset.h"

namespace curtain::dns {

enum class Opcode : uint8_t { kQuery = 0, kStatus = 2 };

enum class Rcode : uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

struct Header {
  uint16_t id = 0;
  bool qr = false;  ///< response flag
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  ///< authoritative answer
  bool tc = false;  ///< truncated
  bool rd = true;   ///< recursion desired
  bool ra = false;  ///< recursion available
  Rcode rcode = Rcode::kNoError;

  bool operator==(const Header&) const = default;
};

struct Question {
  DnsName name;
  RRType type = RRType::kA;
  RRClass klass = RRClass::kIN;

  bool operator==(const Question&) const = default;
};

/// EDNS Client Subnet (RFC 7871): lets a recursive resolver disclose the
/// *client's* network to authoritative servers, so replica selection can
/// key on the client rather than on the resolver. This is the remedy the
/// paper's related work (Otto et al., IMC'12) anticipates; Google Public
/// DNS deployed it for opted-in CDNs in the study's era.
struct EdnsClientSubnet {
  net::Ipv4Addr address;       ///< client address, truncated to the prefix
  uint8_t source_prefix_len = 24;
  uint8_t scope_prefix_len = 0;  ///< set by the authority in responses

  bool operator==(const EdnsClientSubnet&) const = default;
};

/// A message's sections borrow shared rrsets wherever the data is World
/// zone data (dns/rrset.h), so building, forwarding and caching a response
/// copies no record. The question is held inline: a query for a static
/// name (a table handle, dns/name.h) is built, echoed and answered without
/// touching the heap.
struct Message {
  Header header;
  /// The one question (RFC 9619: QDCOUNT is at most one). Absent only in a
  /// FORMERR reply to a packet that carried none.
  std::optional<Question> question;
  Section answers;
  Section authorities;
  Section additionals;
  /// EDNS(0) client-subnet option, carried in an OPT pseudo-RR on the
  /// wire (never stored in `additionals`).
  std::optional<EdnsClientSubnet> ecs;

  /// A recursion-desired query for (name, type).
  static Message query(uint16_t id, const DnsName& name, RRType type);

  /// Response skeleton echoing this query's id and question.
  Message make_response() const;

  /// First answer of the given type, if any.
  std::optional<RecordView> first_answer(RRType type) const;

  /// All A-record addresses in the answer section, in order.
  std::vector<net::Ipv4Addr> answer_addresses() const;

  bool operator==(const Message&) const = default;
};

/// Encodes to wire format with name compression. Counts are derived from
/// the section vectors.
std::vector<uint8_t> encode(const Message& message);

/// Decodes a wire-format message. nullopt on truncation, malformed labels,
/// forward/looping compression pointers, unknown RR types, or more than
/// one question.
std::optional<Message> decode(std::span<const uint8_t> wire);

}  // namespace curtain::dns
