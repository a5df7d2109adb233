// Measurement record types — the schema of the study's dataset.
//
// Every record the analyses consume is something a real client app (or the
// university vantage point) could log: resolution times, answer addresses,
// probe RTTs, traceroute hop lists, and resolver identities learned through
// the research ADNS. Analyses never peek at simulator internals; they work
// from these records exactly as the paper worked from its app logs.
//
// These are *transfer* structs: producers fill one record at a time and hand
// it to a measure::RecordStore (record_store.h), which packs the fields into
// columnar record blocks (record_block.h). Nothing retains vectors of these
// fat structs any more — that is the whole point of the record-block
// pipeline (DESIGN.md §15).
//
// None of them carries an experiment id. Identity is positional: the store
// attaches each measurement to the latest experiment appended before it,
// and assigns experiment ids itself when a block joins it; readers see the
// id on the row views (record_block.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cellular/radio.h"
#include "net/geo.h"
#include "net/ipv4.h"
#include "net/time.h"
#include "util/smallvec.h"

namespace curtain::measure {

/// Which resolver a measurement exercised.
enum class ResolverKind { kLocal = 0, kGoogle = 1, kOpenDns = 2 };
constexpr size_t kNumResolverKinds = 3;
const char* resolver_kind_name(ResolverKind kind);

/// Context shared by every measurement of one experiment run.
struct ExperimentContext {
  uint64_t device_id = 0;
  /// Into the carrier table the run was built from (RecordStore::carriers()).
  int carrier_index = 0;
  net::SimTime started;
  cellular::RadioTech radio = cellular::RadioTech::kLte;
  net::GeoPoint location;
  int gateway_index = 0;
  net::Ipv4Addr public_ip;
  net::Ipv4Addr configured_resolver;
};

/// One DNS resolution of a study domain.
struct DnsMeasurement {
  ResolverKind resolver = ResolverKind::kLocal;
  uint16_t domain_index = 0;  ///< into cdn::study_domains()
  bool responded = false;
  bool second_lookup = false;  ///< back-to-back repeat (Fig. 7)
  double resolution_ms = 0.0;
  /// A-record answers in answer order; inline up to eight, so recording a
  /// resolution allocates nothing on the way to the block's address pool.
  util::SmallVec<net::Ipv4Addr, 8> addresses;
  /// Slot of this resolution's hop-by-hop trace in its experiment's record
  /// block (RecordStore::add_trace) when it was sampled; -1 otherwise.
  int32_t trace_slot = -1;
};

enum class ProbeTargetKind {
  kReplica,           ///< CDN replica returned by a resolution
  kClientResolver,    ///< device-configured resolver address
  kExternalResolver,  ///< external-facing resolver learned via the ADNS
  kPublicVip,         ///< public DNS service address
  kBootstrap,         ///< radio wake-up probe
};
constexpr size_t kNumProbeTargetKinds = 5;

/// A ping or HTTP GET (time-to-first-byte) probe.
struct ProbeMeasurement {
  ProbeTargetKind target_kind = ProbeTargetKind::kReplica;
  ResolverKind resolver = ResolverKind::kLocal;  ///< who selected the target
  uint16_t domain_index = 0;                     ///< for replica targets
  net::Ipv4Addr target_ip;
  bool is_http = false;  ///< false: ICMP ping; true: HTTP GET TTFB
  bool responded = false;
  double rtt_ms = 0.0;  ///< ping RTT or HTTP TTFB
};

/// One traceroute, stored as the hop names the client would see.
struct TracerouteMeasurement {
  net::Ipv4Addr target_ip;
  ProbeTargetKind target_kind = ProbeTargetKind::kReplica;
  bool reached = false;
  /// Responding hops in order; "*" for silent hops.
  std::vector<std::string> hop_names;
};

/// External-facing resolver identity observed through the research ADNS.
struct ResolverObservation {
  ResolverKind resolver = ResolverKind::kLocal;
  bool responded = false;
  net::Ipv4Addr external_ip;  ///< address our ADNS saw querying
  double resolution_ms = 0.0;
};

/// A probe launched from the wired university vantage point (Table 4).
struct VantageProbe {
  net::Ipv4Addr target_ip;
  int carrier_index = 0;  ///< as ExperimentContext::carrier_index
  bool ping_responded = false;
  bool traceroute_reached = false;
};

}  // namespace curtain::measure
