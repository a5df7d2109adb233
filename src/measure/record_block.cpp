#include "measure/record_block.h"

#include <limits>

#include "util/contract.h"

namespace curtain::measure {

namespace {

/// Slot of the latest experiment: the one every new row belongs to.
uint32_t latest_slot(const RecordBlock& block) {
  CURTAIN_DCHECK(!block.experiments.empty()) << "row before any experiment";
  return static_cast<uint32_t>(block.experiments.size() - 1);
}

template <typename T>
size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

const ExperimentContext& ExperimentRow::context() const {
  const uint32_t slot = experiment_id - block->first_experiment_id;
  CURTAIN_DCHECK(slot < block->experiments.size())
      << "experiment " << experiment_id << " is not in this block";
  return block->experiments[slot];
}

const obs::ResolutionTrace* ResolutionRow::trace() const {
  if (trace_slot < 0) return nullptr;
  CURTAIN_DCHECK(static_cast<size_t>(trace_slot) < block->traces.size())
      << "trace slot " << trace_slot << " of " << block->traces.size();
  return &block->traces[static_cast<size_t>(trace_slot)];
}

std::string_view TracerouteRow::hop(size_t i) const {
  CURTAIN_DCHECK(i < hop_count) << "hop " << i << " of " << hop_count;
  return block->hop_name(hop_begin + static_cast<uint32_t>(i));
}

void RecordBlock::append_experiment(const ExperimentContext& context) {
  experiments.push_back(context);
  ++rows;
}

void RecordBlock::append_resolution(const DnsMeasurement& record) {
  CURTAIN_DCHECK(record.addresses.size() <=
                 std::numeric_limits<uint16_t>::max())
      << record.addresses.size();
  resolutions.experiment_slot.push_back(latest_slot(*this));
  resolutions.resolution_ms.push_back(record.resolution_ms);
  resolutions.addr_begin.push_back(static_cast<uint32_t>(addr_pool.size()));
  resolutions.trace_slot.push_back(record.trace_slot);
  resolutions.domain_index.push_back(record.domain_index);
  resolutions.addr_count.push_back(
      static_cast<uint16_t>(record.addresses.size()));
  resolutions.resolver.push_back(static_cast<uint8_t>(record.resolver));
  resolutions.flags.push_back(
      static_cast<uint8_t>((record.responded ? kFlagResponded : 0) |
                           (record.second_lookup ? kFlagSecondLookup : 0)));
  addr_pool.insert(addr_pool.end(), record.addresses.begin(),
                   record.addresses.end());
  ++rows;
}

void RecordBlock::append_probe(const ProbeMeasurement& record) {
  probes.experiment_slot.push_back(latest_slot(*this));
  probes.target_ip.push_back(record.target_ip);
  probes.rtt_ms.push_back(record.rtt_ms);
  probes.domain_index.push_back(record.domain_index);
  probes.target_kind.push_back(static_cast<uint8_t>(record.target_kind));
  probes.resolver.push_back(static_cast<uint8_t>(record.resolver));
  probes.flags.push_back(
      static_cast<uint8_t>((record.responded ? kFlagResponded : 0) |
                           (record.is_http ? kFlagHttp : 0)));
  ++rows;
}

void RecordBlock::append_traceroute(TracerouteMeasurement&& record) {
  CURTAIN_DCHECK(record.hop_names.size() <=
                 std::numeric_limits<uint16_t>::max())
      << record.hop_names.size();
  traceroutes.experiment_slot.push_back(latest_slot(*this));
  traceroutes.target_ip.push_back(record.target_ip);
  traceroutes.hop_begin.push_back(static_cast<uint32_t>(hop_starts.size()));
  traceroutes.hop_count.push_back(
      static_cast<uint16_t>(record.hop_names.size()));
  traceroutes.target_kind.push_back(static_cast<uint8_t>(record.target_kind));
  traceroutes.reached.push_back(record.reached ? 1 : 0);
  for (const std::string& hop : record.hop_names) {
    hop_starts.push_back(static_cast<uint32_t>(hop_chars.size()));
    hop_chars.insert(hop_chars.end(), hop.begin(), hop.end());
  }
  record.hop_names.clear();
  ++rows;
}

void RecordBlock::append_observation(const ResolverObservation& record) {
  observations.experiment_slot.push_back(latest_slot(*this));
  observations.external_ip.push_back(record.external_ip);
  observations.resolution_ms.push_back(record.resolution_ms);
  observations.resolver.push_back(static_cast<uint8_t>(record.resolver));
  observations.responded.push_back(record.responded ? 1 : 0);
  ++rows;
}

void RecordBlock::append_vantage(const VantageProbe& record) {
  vantage_probes.push_back(record);
  ++rows;
}

void RecordBlock::append_trace(obs::ResolutionTrace&& trace) {
  traces.push_back(std::move(trace));
  ++rows;
}

ExperimentRow RecordBlock::experiment_row(size_t slot) const {
  CURTAIN_DCHECK(slot < experiments.size()) << slot;
  return ExperimentRow{first_experiment_id + static_cast<uint32_t>(slot), this};
}

ResolutionRow RecordBlock::resolution_row(size_t i) const {
  CURTAIN_DCHECK(i < resolutions.size()) << i;
  ResolutionRow row;
  row.experiment_id = first_experiment_id + resolutions.experiment_slot[i];
  row.block = this;
  row.resolver = static_cast<ResolverKind>(resolutions.resolver[i]);
  row.domain_index = resolutions.domain_index[i];
  row.responded = (resolutions.flags[i] & kFlagResponded) != 0;
  row.second_lookup = (resolutions.flags[i] & kFlagSecondLookup) != 0;
  row.resolution_ms = resolutions.resolution_ms[i];
  row.addresses = std::span<const net::Ipv4Addr>(
      addr_pool.data() + resolutions.addr_begin[i], resolutions.addr_count[i]);
  row.trace_slot = resolutions.trace_slot[i];
  return row;
}

ProbeRow RecordBlock::probe_row(size_t i) const {
  CURTAIN_DCHECK(i < probes.size()) << i;
  ProbeRow row;
  row.experiment_id = first_experiment_id + probes.experiment_slot[i];
  row.block = this;
  row.target_kind = static_cast<ProbeTargetKind>(probes.target_kind[i]);
  row.resolver = static_cast<ResolverKind>(probes.resolver[i]);
  row.domain_index = probes.domain_index[i];
  row.target_ip = probes.target_ip[i];
  row.is_http = (probes.flags[i] & kFlagHttp) != 0;
  row.responded = (probes.flags[i] & kFlagResponded) != 0;
  row.rtt_ms = probes.rtt_ms[i];
  return row;
}

TracerouteRow RecordBlock::traceroute_row(size_t i) const {
  CURTAIN_DCHECK(i < traceroutes.size()) << i;
  TracerouteRow row;
  row.experiment_id = first_experiment_id + traceroutes.experiment_slot[i];
  row.block = this;
  row.target_ip = traceroutes.target_ip[i];
  row.target_kind = static_cast<ProbeTargetKind>(traceroutes.target_kind[i]);
  row.reached = traceroutes.reached[i] != 0;
  row.hop_count = traceroutes.hop_count[i];
  row.hop_begin = traceroutes.hop_begin[i];
  return row;
}

ObservationRow RecordBlock::observation_row(size_t i) const {
  CURTAIN_DCHECK(i < observations.size()) << i;
  ObservationRow row;
  row.experiment_id = first_experiment_id + observations.experiment_slot[i];
  row.block = this;
  row.resolver = static_cast<ResolverKind>(observations.resolver[i]);
  row.responded = observations.responded[i] != 0;
  row.external_ip = observations.external_ip[i];
  row.resolution_ms = observations.resolution_ms[i];
  return row;
}

std::string_view RecordBlock::hop_name(uint32_t hop_index) const {
  CURTAIN_DCHECK(hop_index < hop_starts.size()) << hop_index;
  const uint32_t begin = hop_starts[hop_index];
  const uint32_t end = hop_index + 1 < hop_starts.size()
                           ? hop_starts[hop_index + 1]
                           : static_cast<uint32_t>(hop_chars.size());
  return std::string_view(hop_chars.data() + begin, end - begin);
}

size_t RecordBlock::approx_bytes() const {
  size_t bytes = vec_bytes(experiments) + vec_bytes(vantage_probes) +
                 vec_bytes(traces) + vec_bytes(addr_pool) +
                 vec_bytes(hop_starts) + vec_bytes(hop_chars);
  bytes += vec_bytes(resolutions.experiment_slot) +
           vec_bytes(resolutions.resolution_ms) +
           vec_bytes(resolutions.addr_begin) +
           vec_bytes(resolutions.trace_slot) +
           vec_bytes(resolutions.domain_index) +
           vec_bytes(resolutions.addr_count) +
           vec_bytes(resolutions.resolver) + vec_bytes(resolutions.flags);
  bytes += vec_bytes(probes.experiment_slot) + vec_bytes(probes.target_ip) +
           vec_bytes(probes.rtt_ms) + vec_bytes(probes.domain_index) +
           vec_bytes(probes.target_kind) + vec_bytes(probes.resolver) +
           vec_bytes(probes.flags);
  bytes += vec_bytes(traceroutes.experiment_slot) +
           vec_bytes(traceroutes.target_ip) + vec_bytes(traceroutes.hop_begin) +
           vec_bytes(traceroutes.hop_count) +
           vec_bytes(traceroutes.target_kind) + vec_bytes(traceroutes.reached);
  bytes += vec_bytes(observations.experiment_slot) +
           vec_bytes(observations.external_ip) +
           vec_bytes(observations.resolution_ms) +
           vec_bytes(observations.resolver) + vec_bytes(observations.responded);
  for (const auto& trace : traces) {
    bytes += trace.spans.capacity() * sizeof(obs::TraceSpan);
  }
  return bytes;
}

}  // namespace curtain::measure
