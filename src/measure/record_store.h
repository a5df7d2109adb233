// RecordStore: the campaign's measurement stream, in record blocks.
//
// This is the single owner type for campaign output, replacing the old
// grow-forever `measure::Dataset`. Producers append transfer structs
// (records.h); the store packs them into columnar RecordBlocks
// (record_block.h), sealing a block whenever it reaches the row budget
// (CURTAIN_BLOCK_ROWS). What happens to sealed blocks is the mode switch:
//
//   * retained (default): sealed blocks accumulate in the store, and
//     analyses walk them through the cursor ranges below — the in-memory
//     workflow, same results as the old Dataset but in column layout.
//   * draining (drain_to): sealed blocks are forwarded to a RecordSink and
//     freed, so the store holds at most one open block regardless of
//     campaign length — the bounded-memory workflow for 10^6-device fleets.
//
// Record identity: experiment ids and trace indices are assigned densely in
// append order. Shard-local streams are renumbered into the campaign-global
// stream with drain_renumbered(), which reproduces the serial merge order
// exactly — exports are byte-identical for every shard/cohort/block-size
// combination (shard_determinism_test).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "measure/record_block.h"
#include "measure/records.h"
#include "obs/trace.h"
#include "util/contract.h"

namespace curtain::measure {

/// Consumer side of the streaming pipeline. Blocks arrive in stream order;
/// within and across blocks, records of each stream appear in append order
/// and experiment ids are dense and increasing.
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
  static const ExperimentContext& row(const RecordBlock& b, size_t i) {
    return b.experiments[i];
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
  static const ResolverObservation& row(const RecordBlock& b, size_t i) {
    return b.observations[i];
  }
};
struct VantageAdapter {
  static size_t size(const RecordBlock& b) { return b.vantage_probes.size(); }
  static const VantageProbe& row(const RecordBlock& b, size_t i) {
    return b.vantage_probes[i];
  }
};

}  // namespace detail

class RecordStore final : public RecordSink {
 public:
  /// Block row budget 0 means "read CURTAIN_BLOCK_ROWS" (util/flags.h).
  explicit RecordStore(size_t block_rows = 0);

  RecordStore(RecordStore&&) = default;
  RecordStore& operator=(RecordStore&&) = default;

  // --- producer API -----------------------------------------------------
  /// Stamps the next dense experiment id into `context`, appends it and
  /// returns the id.
  uint32_t add_experiment(ExperimentContext context);
  void add_resolution(DnsMeasurement&& record);
  void add_probe(const ProbeMeasurement& record);
  void add_traceroute(TracerouteMeasurement&& record);
  void add_observation(const ResolverObservation& record);
  void add_vantage(const VantageProbe& record);
  /// Appends a sampled resolution trace and returns its index (for
  /// DnsMeasurement::trace_index).
  int32_t add_trace(obs::ResolutionTrace&& trace);

  // --- streaming --------------------------------------------------------
  /// Switches to draining mode: sealed blocks are forwarded to `sink` and
  /// freed instead of retained. Must be set before the first append.
  /// Random access (context_of, trace_at, cursor ranges) is unavailable
  /// while draining.
  void drain_to(RecordSink* sink);
  /// Seals the open block (forwarding it when draining). Call at
  /// end-of-stream; appending after a flush starts a fresh block.
  void flush();

  /// RecordSink: appends someone else's sealed block. Incoming ids must
  /// continue this store's dense sequence (shift first — see
  /// drain_renumbered).
  void consume(RecordBlock&& block) override;
  void finish() override { flush(); }

  /// Flushes, renumbers every retained block's ids by the given bases and
  /// hands the blocks to `sink` in order, leaving this store empty. This is
  /// the deterministic shard merge: calling it per shard in shard-index
  /// order with accumulated bases reproduces the serial record stream.
  void drain_renumbered(RecordSink& sink, uint32_t experiment_base,
                        int32_t trace_base);

  /// Copies every retained block into `sink` (then finish()). Lets the
  /// streaming consumers run from an in-memory store — the byte-identity
  /// bridge between the two workflows.
  void replay(RecordSink& sink) const;

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

  /// Context of an experiment by id. O(log #blocks): ids are dense, so the
  /// row is found by binary search on per-block base ids.
  const ExperimentContext& context_of(uint32_t experiment_id) const;
  const obs::ResolutionTrace& trace_at(int32_t index) const;

  const std::vector<RecordBlock>& blocks() const { return blocks_; }

  /// Approximate heap footprint of the retained blocks (capacities, what
  /// RSS sees). Pools are counted once inside RecordBlock::approx_bytes —
  /// no slab-vs-payload double count. A profiling gauge (obs/memory.h).
  size_t approx_bytes() const;

 private:
  RecordBlock& open_block();
  void seal_open();
  void seal_if_full();
  /// Records that the open/incoming block carries stream rows starting at
  /// the current global offsets (for the retained-mode random accessors).
  void index_block_streams(const RecordBlock& block, size_t block_index,
                           size_t first_experiment, size_t first_trace);

  size_t block_rows_;
  RecordSink* drain_ = nullptr;
  bool open_ = false;  ///< blocks_.back() accepts appends
  std::vector<RecordBlock> blocks_;  // lint: record-growth (retained mode)

  uint32_t next_experiment_id_ = 0;
  int32_t next_trace_index_ = 0;
  size_t experiment_count_ = 0;
  size_t resolution_count_ = 0;
  size_t probe_count_ = 0;
  size_t traceroute_count_ = 0;
  size_t observation_count_ = 0;
  size_t vantage_count_ = 0;
  size_t trace_count_ = 0;

  /// Retained-mode random-access indexes: (first global ordinal, block
  /// index), one entry per block that carries the stream.
  std::vector<std::pair<size_t, size_t>> experiment_index_;
  std::vector<std::pair<size_t, size_t>> trace_index_;
};

}  // namespace curtain::measure
