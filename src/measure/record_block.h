// Columnar record blocks — the unit of the streaming measurement pipeline.
//
// A RecordBlock is a batch of measurement records in struct-of-arrays
// layout. Shards append transfer structs (records.h) one at a time; the
// block packs hot scalar fields into parallel columns and variable-length
// payloads (answer addresses, traceroute hop names) into per-block pools,
// so a row's payload costs no allocation of its own. The owning
// RecordStore seals a block only when the next experiment starts and the
// block has reached its row budget, and then either retains it (in-memory
// analysis) or hands it to a RecordSink (streaming) — so campaign memory
// is bounded by the block budget plus one experiment's rows, not by the
// campaign length (DESIGN.md §15).
//
// Blocks are experiment-aligned and self-contained: every resolution,
// probe, traceroute, observation and trace row sits in the same block as
// its experiment, so a row view finds its ExperimentContext (and a
// resolution its sampled trace) without touching any other block.
//
// Record identity is positional. A row stores the block-local slot of its
// experiment — the latest one appended before it — and the block stores
// one first_experiment_id; an experiment's id is that base plus its slot.
// Only the store a block joins writes the base, so moving a block between
// stores renumbers it without touching a row.
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

/// Row views materialized from the columns. Cheap to copy; they point
/// into the owning block (pools, experiments, traces), so a row must not
/// outlive its block.
struct ExperimentRow {
  /// block->first_experiment_id plus the row's experiment slot.
  uint32_t experiment_id = 0;
  const RecordBlock* block = nullptr;
  /// The row's experiment, in O(1) from its own block.
  const ExperimentContext& context() const;
};

struct ResolutionRow : ExperimentRow {
  ResolverKind resolver = ResolverKind::kLocal;
  uint16_t domain_index = 0;
  bool responded = false;
  bool second_lookup = false;
  double resolution_ms = 0.0;
  std::span<const net::Ipv4Addr> addresses;
  int32_t trace_slot = -1;  ///< into block->traces; -1 when not sampled
  /// The hop-by-hop trace when this resolution was sampled, else null.
  const obs::ResolutionTrace* trace() const;
};

struct ProbeRow : ExperimentRow {
  ProbeTargetKind target_kind = ProbeTargetKind::kReplica;
  ResolverKind resolver = ResolverKind::kLocal;
  uint16_t domain_index = 0;
  net::Ipv4Addr target_ip;
  bool is_http = false;
  bool responded = false;
  double rtt_ms = 0.0;
};

struct TracerouteRow : ExperimentRow {
  net::Ipv4Addr target_ip;
  ProbeTargetKind target_kind = ProbeTargetKind::kReplica;
  bool reached = false;
  size_t hop_count = 0;
  /// Hop `i` (0-based, in client order); views the block's char pool.
  std::string_view hop(size_t i) const;

  uint32_t hop_begin = 0;  ///< first entry in the block's hop_starts
};

struct ObservationRow : ExperimentRow {
  ResolverKind resolver = ResolverKind::kLocal;
  bool responded = false;
  net::Ipv4Addr external_ip;
  double resolution_ms = 0.0;
};

struct RecordBlock {
  // Flag bits shared by the resolution and probe columns.
  static constexpr uint8_t kFlagResponded = 1u << 0;
  static constexpr uint8_t kFlagSecondLookup = 1u << 1;
  static constexpr uint8_t kFlagHttp = 1u << 2;

  /// Id of experiments[0]: experiment slot s has id first_experiment_id + s.
  /// Stamped by the store the block joins (RecordStore), never by a
  /// producer.
  uint32_t first_experiment_id = 0;

  // --- low-volume streams: plain rows ----------------------------------
  // Sealed at the first experiment boundary past the row budget, so these
  // never grow past one block.
  std::vector<ExperimentContext> experiments;      // lint: bounded
  std::vector<VantageProbe> vantage_probes;        // lint: bounded
  /// Hop-by-hop virtual-time traces of sampled resolutions, addressed by
  /// the block-local ResolutionRow::trace_slot. Sampled 1-in-64, so AoS is
  /// fine.
  std::vector<obs::ResolutionTrace> traces;        // lint: bounded

  // --- resolutions: SoA columns + shared address pool -------------------
  struct ResolutionColumns {
    std::vector<uint32_t> experiment_slot;
    std::vector<double> resolution_ms;
    std::vector<uint32_t> addr_begin;  ///< into RecordBlock::addr_pool
    std::vector<int32_t> trace_slot;
    std::vector<uint16_t> domain_index;
    std::vector<uint16_t> addr_count;
    std::vector<uint8_t> resolver;
    std::vector<uint8_t> flags;
    size_t size() const { return experiment_slot.size(); }
  };
  ResolutionColumns resolutions;
  std::vector<net::Ipv4Addr> addr_pool;

  // --- probes: SoA (no variable payload) --------------------------------
  struct ProbeColumns {
    std::vector<uint32_t> experiment_slot;
    std::vector<net::Ipv4Addr> target_ip;
    std::vector<double> rtt_ms;
    std::vector<uint16_t> domain_index;
    std::vector<uint8_t> target_kind;
    std::vector<uint8_t> resolver;
    std::vector<uint8_t> flags;
    size_t size() const { return experiment_slot.size(); }
  };
  ProbeColumns probes;

  // --- traceroutes: SoA + hop-name char pool ----------------------------
  // Hop names are stored back to back in hop_chars; hop_starts[i] is the
  // offset of stored hop i. Because appends are contiguous, hop i ends
  // where hop i+1 starts (or at hop_chars.size() for the last one), so no
  // per-hop length column is needed.
  struct TracerouteColumns {
    std::vector<uint32_t> experiment_slot;
    std::vector<net::Ipv4Addr> target_ip;
    std::vector<uint32_t> hop_begin;  ///< into RecordBlock::hop_starts
    std::vector<uint16_t> hop_count;
    std::vector<uint8_t> target_kind;
    std::vector<uint8_t> reached;
    size_t size() const { return experiment_slot.size(); }
  };
  TracerouteColumns traceroutes;
  std::vector<uint32_t> hop_starts;
  std::vector<char> hop_chars;

  // --- resolver observations: SoA ---------------------------------------
  struct ObservationColumns {
    std::vector<uint32_t> experiment_slot;
    std::vector<net::Ipv4Addr> external_ip;
    std::vector<double> resolution_ms;
    std::vector<uint8_t> resolver;
    std::vector<uint8_t> responded;
    size_t size() const { return experiment_slot.size(); }
  };
  ObservationColumns observations;

  /// Total records appended across all streams (checked against the row
  /// budget at each experiment boundary).
  size_t rows = 0;

  // --- append (pack a transfer struct into the columns) -----------------
  // Resolution, probe, traceroute and observation rows record the slot of
  // the latest experiment, which must exist (RecordStore checks it).
  void append_experiment(const ExperimentContext& context);
  void append_resolution(const DnsMeasurement& record);
  void append_probe(const ProbeMeasurement& record);
  void append_traceroute(TracerouteMeasurement&& record);
  void append_observation(const ResolverObservation& record);
  void append_vantage(const VantageProbe& record);
  void append_trace(obs::ResolutionTrace&& trace);

  // --- row access -------------------------------------------------------
  ExperimentRow experiment_row(size_t slot) const;
  ResolutionRow resolution_row(size_t i) const;
  ProbeRow probe_row(size_t i) const;
  TracerouteRow traceroute_row(size_t i) const;
  ObservationRow observation_row(size_t i) const;
  std::string_view hop_name(uint32_t hop_index) const;

  bool empty() const { return rows == 0; }

  /// Approximate heap footprint: column and pool *capacities* (what RSS
  /// sees). Payload bytes live in the pools and are counted exactly once —
  /// row views are materialized on demand and own nothing.
  size_t approx_bytes() const;
};

}  // namespace curtain::measure
