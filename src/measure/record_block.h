// Columnar record blocks — the unit of the streaming measurement pipeline.
//
// A RecordBlock is a fixed-budget batch of measurement records in
// struct-of-arrays layout. Shards append transfer structs (records.h) one at
// a time; the block packs hot scalar fields into parallel columns and
// variable-length payloads (answer addresses, traceroute hop names) into
// per-block pools, so a row's payload costs no allocation of its own.
// Once a block reaches its row budget the owning RecordStore
// seals it and either retains it (in-memory analysis) or hands it to a
// RecordSink (streaming export) — so campaign memory is bounded by the
// block budget, not the campaign length (DESIGN.md §15).
//
// Blocks are self-contained: ids can be renumbered in place (shift_ids)
// when shard-local streams are merged into one campaign-global stream, and
// every record can be materialized back into a row view without touching
// any other block.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "measure/records.h"
#include "net/ipv4.h"
#include "obs/trace.h"

namespace curtain::measure {

struct RecordBlock;

/// Row views materialized from the columns. Cheap to copy; `addresses`
/// (and traceroute hop accessors) view the owning block's pools, so a row
/// must not outlive its block.
struct ResolutionRow {
  uint32_t experiment_id = 0;
  ResolverKind resolver = ResolverKind::kLocal;
  uint16_t domain_index = 0;
  bool responded = false;
  bool second_lookup = false;
  double resolution_ms = 0.0;
  std::span<const net::Ipv4Addr> addresses;
  int32_t trace_index = -1;
};

struct ProbeRow {
  uint32_t experiment_id = 0;
  ProbeTargetKind target_kind = ProbeTargetKind::kReplica;
  ResolverKind resolver = ResolverKind::kLocal;
  uint16_t domain_index = 0;
  net::Ipv4Addr target_ip;
  bool is_http = false;
  bool responded = false;
  double rtt_ms = 0.0;
};

struct TracerouteRow {
  uint32_t experiment_id = 0;
  net::Ipv4Addr target_ip;
  ProbeTargetKind target_kind = ProbeTargetKind::kReplica;
  bool reached = false;
  size_t hop_count = 0;
  /// Hop `i` (0-based, in client order); views the block's char pool.
  std::string_view hop(size_t i) const;

  const RecordBlock* block = nullptr;
  uint32_t hop_begin = 0;  ///< first entry in the block's hop_starts
};

struct RecordBlock {
  // Flag bits shared by the resolution and probe columns.
  static constexpr uint8_t kFlagResponded = 1u << 0;
  static constexpr uint8_t kFlagSecondLookup = 1u << 1;
  static constexpr uint8_t kFlagHttp = 1u << 2;

  // --- low-volume streams: plain rows ----------------------------------
  // Sealed at the block row budget, so these never grow past one block.
  std::vector<ExperimentContext> experiments;      // lint: bounded
  std::vector<ResolverObservation> observations;   // lint: bounded
  std::vector<VantageProbe> vantage_probes;        // lint: bounded
  /// Hop-by-hop virtual-time traces of sampled resolutions (see
  /// ResolutionRow::trace_index). Sampled 1-in-64, so AoS is fine.
  std::vector<obs::ResolutionTrace> traces;        // lint: bounded

  // --- resolutions: SoA columns + shared address pool -------------------
  struct ResolutionColumns {
    std::vector<uint32_t> experiment_id;
    std::vector<double> resolution_ms;
    std::vector<uint32_t> addr_begin;  ///< into RecordBlock::addr_pool
    std::vector<int32_t> trace_index;
    std::vector<uint16_t> domain_index;
    std::vector<uint16_t> addr_count;
    std::vector<uint8_t> resolver;
    std::vector<uint8_t> flags;
    size_t size() const { return experiment_id.size(); }
  };
  ResolutionColumns resolutions;
  std::vector<net::Ipv4Addr> addr_pool;

  // --- probes: SoA (no variable payload) --------------------------------
  struct ProbeColumns {
    std::vector<uint32_t> experiment_id;
    std::vector<net::Ipv4Addr> target_ip;
    std::vector<double> rtt_ms;
    std::vector<uint16_t> domain_index;
    std::vector<uint8_t> target_kind;
    std::vector<uint8_t> resolver;
    std::vector<uint8_t> flags;
    size_t size() const { return experiment_id.size(); }
  };
  ProbeColumns probes;

  // --- traceroutes: SoA + hop-name char pool ----------------------------
  // Hop names are stored back to back in hop_chars; hop_starts[i] is the
  // offset of stored hop i. Because appends are contiguous, hop i ends
  // where hop i+1 starts (or at hop_chars.size() for the last one), so no
  // per-hop length column is needed.
  struct TracerouteColumns {
    std::vector<uint32_t> experiment_id;
    std::vector<net::Ipv4Addr> target_ip;
    std::vector<uint32_t> hop_begin;  ///< into RecordBlock::hop_starts
    std::vector<uint16_t> hop_count;
    std::vector<uint8_t> target_kind;
    std::vector<uint8_t> reached;
    size_t size() const { return experiment_id.size(); }
  };
  TracerouteColumns traceroutes;
  std::vector<uint32_t> hop_starts;
  std::vector<char> hop_chars;

  /// Total records appended across all streams (the seal budget).
  size_t rows = 0;

  // --- append (pack a transfer struct into the columns) -----------------
  void append_experiment(const ExperimentContext& context);
  void append_resolution(const DnsMeasurement& record);
  void append_probe(const ProbeMeasurement& record);
  void append_traceroute(TracerouteMeasurement&& record);
  void append_observation(const ResolverObservation& record);
  void append_vantage(const VantageProbe& record);
  void append_trace(obs::ResolutionTrace&& trace);

  // --- row access -------------------------------------------------------
  ResolutionRow resolution_row(size_t i) const;
  ProbeRow probe_row(size_t i) const;
  TracerouteRow traceroute_row(size_t i) const;
  std::string_view hop_name(uint32_t hop_index) const;

  /// Renumbers shard-local ids into a campaign-global stream: adds
  /// `experiment_base` to every experiment_id column and `trace_base` to
  /// every non-negative trace_index.
  void shift_ids(uint32_t experiment_base, int32_t trace_base);

  bool empty() const { return rows == 0; }

  /// Approximate heap footprint: column and pool *capacities* (what RSS
  /// sees). Payload bytes live in the pools and are counted exactly once —
  /// row views are materialized on demand and own nothing.
  size_t approx_bytes() const;
};

}  // namespace curtain::measure
