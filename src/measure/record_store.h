// RecordStore: the campaign's measurement stream, in record blocks.
//
// This is the single owner type for campaign output. Producers append
// transfer structs (records.h); the store packs them into columnar
// RecordBlocks (record_block.h). One seal rule: add_experiment seals the
// open block once it has reached the row budget (CURTAIN_BLOCK_ROWS);
// no other append seals. Every row therefore lives in the same block as
// its experiment, and row views reach their ExperimentContext (and a
// sampled resolution its trace) inside that block in O(1) — the store
// keeps no cross-block index. What happens to sealed blocks is the
// owner's choice, made before the first append:
//
//   * retained (default): sealed blocks accumulate in the store, and
//     analyses walk them through the cursor ranges below — the in-memory
//     workflow (core::Study).
//   * draining (drain_to): sealed blocks are forwarded to a RecordSink and
//     freed, so the store holds at most one open block regardless of
//     campaign length — the bounded-memory workflow for 10^6-device fleets
//     (bench/micro_fleet). finish() forwards the last block and then
//     finishes the sink.
//
// exec::CampaignEngine::run fills one store per shard, in either mode.
//
// Record identity is positional (record_block.h): producers never see an
// experiment id, and a block's ids are assigned by the store it joins —
// when a producing store opens it, and again when consume() appends it.
// Handing each shard's blocks to one store in shard order (hand_off)
// reproduces the serial record stream without rewriting a row, so exports
// are byte-identical for every shard/cohort/block-size combination
// (shard_determinism_test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cellular/carrier_profile.h"
#include "measure/record_block.h"
#include "measure/records.h"
#include "obs/trace.h"
#include "util/contract.h"

namespace curtain::measure {

/// Consumer side of the streaming pipeline. Blocks arrive in stream order;
/// within and across blocks, records of each stream appear in append order.
/// Every block is experiment-aligned: each row's experiment is in the same
/// block. A block's ids are those of the store that sealed it; a consuming
/// RecordStore renumbers them into its own sequence.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void consume(RecordBlock&& block) = 0;
  /// Called once after the final block; flush buffers here.
  virtual void finish() {}
};

namespace detail {

/// Forward cursor over one stream across a chain of blocks. `Adapter`
/// supplies the per-block stream size and row accessor.
template <typename Adapter>
class BlockCursor {
 public:
  BlockCursor(const std::vector<RecordBlock>* blocks, size_t block)
      : blocks_(blocks), block_(block) {
    skip_empty();
  }

  decltype(auto) operator*() const {
    return Adapter::row((*blocks_)[block_], row_);
  }
  BlockCursor& operator++() {
    if (++row_ >= Adapter::size((*blocks_)[block_])) {
      ++block_;
      row_ = 0;
      skip_empty();
    }
    return *this;
  }
  bool operator==(const BlockCursor& other) const {
    return block_ == other.block_ && row_ == other.row_;
  }

 private:
  void skip_empty() {
    while (block_ < blocks_->size() &&
           Adapter::size((*blocks_)[block_]) == 0) {
      ++block_;
    }
  }

  const std::vector<RecordBlock>* blocks_;
  size_t block_;
  size_t row_ = 0;
};

template <typename Adapter>
class BlockRange {
 public:
  explicit BlockRange(const std::vector<RecordBlock>* blocks)
      : blocks_(blocks) {}
  BlockCursor<Adapter> begin() const { return {blocks_, 0}; }
  BlockCursor<Adapter> end() const { return {blocks_, blocks_->size()}; }

 private:
  const std::vector<RecordBlock>* blocks_;
};

struct ExperimentAdapter {
  static size_t size(const RecordBlock& b) { return b.experiments.size(); }
  static ExperimentRow row(const RecordBlock& b, size_t i) {
    return b.experiment_row(i);
  }
};
struct ResolutionAdapter {
  static size_t size(const RecordBlock& b) { return b.resolutions.size(); }
  static ResolutionRow row(const RecordBlock& b, size_t i) {
    return b.resolution_row(i);
  }
};
struct ProbeAdapter {
  static size_t size(const RecordBlock& b) { return b.probes.size(); }
  static ProbeRow row(const RecordBlock& b, size_t i) {
    return b.probe_row(i);
  }
};
struct TracerouteAdapter {
  static size_t size(const RecordBlock& b) { return b.traceroutes.size(); }
  static TracerouteRow row(const RecordBlock& b, size_t i) {
    return b.traceroute_row(i);
  }
};
struct ObservationAdapter {
  static size_t size(const RecordBlock& b) { return b.observations.size(); }
  static ObservationRow row(const RecordBlock& b, size_t i) {
    return b.observation_row(i);
  }
};
struct VantageAdapter {
  static size_t size(const RecordBlock& b) { return b.vantage_probes.size(); }
  static const VantageProbe& row(const RecordBlock& b, size_t i) {
    return b.vantage_probes[i];
  }
};

}  // namespace detail

/// Cache-line aligned: the engine's callers keep one store per shard side
/// by side in one array, and workers bump these counters on every append,
/// so two stores must never share a line.
class alignas(64) RecordStore final : public RecordSink {
 public:
  /// Block row budget 0 means "read CURTAIN_BLOCK_ROWS" (util/flags.h).
  explicit RecordStore(size_t block_rows = 0);

  RecordStore(RecordStore&&) = default;
  RecordStore& operator=(RecordStore&&) = default;

  // --- producer API -----------------------------------------------------
  /// Appends the next experiment; the rows added after it belong to it.
  /// Seals the open block first when it has reached the row budget: the
  /// only place a block seals during appends.
  void add_experiment(const ExperimentContext& context);
  /// These attach the row to the open block's latest experiment, and abort
  /// when the open block has none (as does add_trace).
  void add_resolution(DnsMeasurement&& record);
  void add_probe(const ProbeMeasurement& record);
  void add_traceroute(TracerouteMeasurement&& record);
  void add_observation(const ResolverObservation& record);
  /// Vantage probes belong to no experiment.
  void add_vantage(const VantageProbe& record);
  /// Appends a sampled resolution trace to the open block and returns its
  /// block-local slot (for DnsMeasurement::trace_slot).
  int32_t add_trace(obs::ResolutionTrace&& trace);

  // --- streaming --------------------------------------------------------
  /// Switches to draining mode: sealed blocks are forwarded to `sink` and
  /// freed instead of retained. Must be set before the first append.
  /// The cursor ranges see nothing while draining.
  void drain_to(RecordSink* sink);
  /// Seals the open block (forwarding it when draining). Appending after
  /// a flush starts a fresh block.
  void flush();

  /// RecordSink: appends someone else's sealed block, numbering its
  /// experiments on from this store's count (first_experiment_id).
  void consume(RecordBlock&& block) override;
  /// End of stream: flushes, then, when draining, finishes the sink.
  void finish() override;

  /// Flushes and moves every retained block into `sink` in order, leaving
  /// this store empty. This is the deterministic shard merge: handing each
  /// shard's blocks to one store in shard-index order reproduces the
  /// serial record stream.
  void hand_off(RecordSink& sink);

  // --- totals (valid in both modes) -------------------------------------
  size_t experiment_count() const { return experiment_count_; }
  size_t resolution_count() const { return resolution_count_; }
  size_t probe_count() const { return probe_count_; }
  size_t traceroute_count() const { return traceroute_count_; }
  size_t observation_count() const { return observation_count_; }
  size_t vantage_count() const { return vantage_count_; }
  size_t trace_count() const { return trace_count_; }
  /// Totals the paper reports in §3.1 (for sanity reporting).
  size_t total_resolutions() const { return resolution_count_; }
  size_t total_probes() const { return probe_count_ + traceroute_count_; }

  // --- cursors (retained mode only) -------------------------------------
  detail::BlockRange<detail::ExperimentAdapter> experiments() const {
    return detail::BlockRange<detail::ExperimentAdapter>(&blocks_);
  }
  detail::BlockRange<detail::ResolutionAdapter> resolutions() const {
    return detail::BlockRange<detail::ResolutionAdapter>(&blocks_);
  }
  detail::BlockRange<detail::ProbeAdapter> probes() const {
    return detail::BlockRange<detail::ProbeAdapter>(&blocks_);
  }
  detail::BlockRange<detail::TracerouteAdapter> traceroutes() const {
    return detail::BlockRange<detail::TracerouteAdapter>(&blocks_);
  }
  detail::BlockRange<detail::ObservationAdapter> observations() const {
    return detail::BlockRange<detail::ObservationAdapter>(&blocks_);
  }
  detail::BlockRange<detail::VantageAdapter> vantage_probes() const {
    return detail::BlockRange<detail::VantageAdapter>(&blocks_);
  }

  const std::vector<RecordBlock>& blocks() const { return blocks_; }

  /// The carrier table every carrier_index in the records points into:
  /// the one the run was built from (core::Scenario::carrier_table()).
  /// Defaults to cellular::study_carriers(); a table set here must
  /// outlive the store.
  const std::vector<cellular::CarrierProfile>& carriers() const {
    return *carriers_;
  }
  void set_carriers(const std::vector<cellular::CarrierProfile>& table) {
    carriers_ = &table;
  }
  /// Display name of carrier `carrier_index` in carriers().
  const std::string& carrier_name(int carrier_index) const;

  /// Approximate heap footprint of the retained blocks (capacities, what
  /// RSS sees). Pools are counted once inside RecordBlock::approx_bytes —
  /// no slab-vs-payload double count. A profiling gauge (obs/memory.h).
  size_t approx_bytes() const;

 private:
  RecordBlock& open_block();
  /// The open block, checked to hold an experiment for a row to join.
  RecordBlock& experiment_block();
  void seal_open();

  size_t block_rows_;
  const std::vector<cellular::CarrierProfile>* carriers_;
  RecordSink* drain_ = nullptr;
  bool open_ = false;  ///< blocks_.back() accepts appends
  std::vector<RecordBlock> blocks_;  // lint: record-growth (retained mode)

  size_t experiment_count_ = 0;  ///< also the next experiment's id
  size_t resolution_count_ = 0;
  size_t probe_count_ = 0;
  size_t traceroute_count_ = 0;
  size_t observation_count_ = 0;
  size_t vantage_count_ = 0;
  size_t trace_count_ = 0;
};

}  // namespace curtain::measure
