#include "measure/record_store.h"

#include <limits>

#include "util/flags.h"

namespace curtain::measure {

RecordStore::RecordStore(size_t block_rows)
    : block_rows_(block_rows != 0 ? block_rows : util::record_block_rows()),
      carriers_(&cellular::study_carriers()) {}

const std::string& RecordStore::carrier_name(int carrier_index) const {
  CURTAIN_CHECK(carrier_index >= 0 &&
                static_cast<size_t>(carrier_index) < carriers_->size())
      << "carrier index " << carrier_index << " outside the run's "
      << carriers_->size() << "-carrier table";
  return (*carriers_)[static_cast<size_t>(carrier_index)].name;
}

RecordBlock& RecordStore::open_block() {
  if (!open_) {
    blocks_.emplace_back();
    blocks_.back().first_experiment_id =
        static_cast<uint32_t>(experiment_count_);
    open_ = true;
  }
  return blocks_.back();
}

RecordBlock& RecordStore::experiment_block() {
  CURTAIN_CHECK(open_ && !blocks_.back().experiments.empty())
      << "measurement row appended before any experiment";
  return blocks_.back();
}

void RecordStore::seal_open() {
  if (!open_) return;
  open_ = false;
  if (drain_ != nullptr) {
    RecordBlock block = std::move(blocks_.back());
    blocks_.pop_back();
    if (!block.empty()) drain_->consume(std::move(block));
  } else if (blocks_.back().empty()) {
    blocks_.pop_back();
  }
}

void RecordStore::add_experiment(const ExperimentContext& context) {
  CURTAIN_CHECK(experiment_count_ < std::numeric_limits<uint32_t>::max())
      << "experiment id space exhausted";
  if (open_ && blocks_.back().rows >= block_rows_) seal_open();
  open_block().append_experiment(context);
  ++experiment_count_;
}

void RecordStore::add_resolution(DnsMeasurement&& record) {
  experiment_block().append_resolution(record);
  ++resolution_count_;
}

void RecordStore::add_probe(const ProbeMeasurement& record) {
  experiment_block().append_probe(record);
  ++probe_count_;
}

void RecordStore::add_traceroute(TracerouteMeasurement&& record) {
  experiment_block().append_traceroute(std::move(record));
  ++traceroute_count_;
}

void RecordStore::add_observation(const ResolverObservation& record) {
  experiment_block().append_observation(record);
  ++observation_count_;
}

void RecordStore::add_vantage(const VantageProbe& record) {
  open_block().append_vantage(record);
  ++vantage_count_;
}

int32_t RecordStore::add_trace(obs::ResolutionTrace&& trace) {
  RecordBlock& block = experiment_block();
  const auto slot = static_cast<int32_t>(block.traces.size());
  block.append_trace(std::move(trace));
  ++trace_count_;
  return slot;
}

void RecordStore::drain_to(RecordSink* sink) {
  // A draining store is empty again after each seal, so the counts, not
  // the blocks, tell whether anything was appended.
  CURTAIN_CHECK(blocks_.empty() && experiment_count_ == 0 &&
                vantage_count_ == 0)
      << "drain_to must be set before the first append";
  drain_ = sink;
}

void RecordStore::flush() { seal_open(); }

void RecordStore::finish() {
  flush();
  if (drain_ != nullptr) drain_->finish();
}

void RecordStore::consume(RecordBlock&& block) {
  if (block.empty()) return;
  seal_open();
  CURTAIN_CHECK(block.experiments.size() <=
                std::numeric_limits<uint32_t>::max() - experiment_count_)
      << "experiment id space exhausted";
  block.first_experiment_id = static_cast<uint32_t>(experiment_count_);
  experiment_count_ += block.experiments.size();
  resolution_count_ += block.resolutions.size();
  probe_count_ += block.probes.size();
  traceroute_count_ += block.traceroutes.size();
  observation_count_ += block.observations.size();
  vantage_count_ += block.vantage_probes.size();
  trace_count_ += block.traces.size();
  if (drain_ != nullptr) {
    drain_->consume(std::move(block));
  } else {
    blocks_.push_back(std::move(block));
  }
}

void RecordStore::hand_off(RecordSink& sink) {
  flush();
  for (RecordBlock& block : blocks_) sink.consume(std::move(block));
  // Back to an empty store with the same budget, carrier table and mode.
  RecordStore emptied(block_rows_);
  emptied.carriers_ = carriers_;
  emptied.drain_ = drain_;
  *this = std::move(emptied);
}

size_t RecordStore::approx_bytes() const {
  size_t bytes = blocks_.capacity() * sizeof(RecordBlock);
  for (const RecordBlock& block : blocks_) bytes += block.approx_bytes();
  return bytes;
}

}  // namespace curtain::measure
