// lint-hot-path: every writer below formats one row per record; rows are
// built from views and stack buffers, never per-cell strings.
#include "analysis/export.h"

#include <fstream>
#include <string_view>

#include "cdn/domains.h"
#include "util/contract.h"
#include "util/csv.h"

namespace curtain::analysis {
namespace {

const char* target_kind_name(measure::ProbeTargetKind kind) {
  switch (kind) {
    case measure::ProbeTargetKind::kReplica: return "replica";
    case measure::ProbeTargetKind::kClientResolver: return "client_resolver";
    case measure::ProbeTargetKind::kExternalResolver: return "external_resolver";
    case measure::ProbeTargetKind::kPublicVip: return "public_vip";
    case measure::ProbeTargetKind::kBootstrap: return "bootstrap";
  }
  return "?";
}

/// Every block must be experiment-aligned: each row's experiment slot and
/// each resolution's trace slot point inside the row's own block, which is
/// where the row views find their context and trace. (Experiment ids run
/// dense by construction: the store stamps each block's base.) A violation
/// means the record store is broken, and a loud abort beats shipping
/// silently inconsistent files.
void check_records_integrity(const measure::RecordStore& records) {
  for (const measure::RecordBlock& block : records.blocks()) {
    const size_t experiments = block.experiments.size();
    const auto check_slots = [&](const std::vector<uint32_t>& slots,
                                 const char* stream) {
      for (const uint32_t slot : slots) {
        CURTAIN_CHECK(slot < experiments)
            << stream << " row references experiment slot " << slot
            << " of a block holding " << experiments << " experiments";
      }
    };
    check_slots(block.resolutions.experiment_slot, "resolution");
    check_slots(block.probes.experiment_slot, "probe");
    check_slots(block.traceroutes.experiment_slot, "traceroute");
    check_slots(block.observations.experiment_slot, "resolver observation");
    for (const int32_t slot : block.resolutions.trace_slot) {
      CURTAIN_CHECK(slot >= -1 && (slot < 0 || static_cast<size_t>(slot) <
                                                   block.traces.size()))
          << "resolution trace slot " << slot << " out of range ("
          << block.traces.size() << " traces in its block)";
    }
  }
}

/// An address or prefix rendered into a stack buffer, handed to the CSV
/// writer as a view (util cannot see net types).
template <typename Net>
class NetText {
 public:
  explicit NetText(const Net& value)
      : size_(static_cast<size_t>(value.to_chars(buf_, buf_ + sizeof(buf_)) -
                                  buf_)) {}
  std::string_view view() const { return {buf_, size_}; }

 private:
  char buf_[Net::kMaxChars];
  size_t size_;
};

}  // namespace

void export_experiments_csv(const measure::RecordStore& records,
                            std::ostream& out) {
  util::CsvWriter csv(out);
  csv.row({"experiment_id", "device_id", "carrier", "started_hours", "radio",
           "lat", "lon", "gateway", "public_ip", "configured_resolver"});
  for (const auto experiment : records.experiments()) {
    const measure::ExperimentContext& context = experiment.context();
    csv.typed_row(experiment.experiment_id, context.device_id,
                  records.carrier_name(context.carrier_index),
                  context.started.hours(),
                  cellular::radio_tech_name(context.radio),
                  context.location.lat_deg, context.location.lon_deg,
                  context.gateway_index, NetText(context.public_ip).view(),
                  NetText(context.configured_resolver).view());
  }
}

void export_resolutions_csv(const measure::RecordStore& records,
                            std::ostream& out) {
  util::CsvWriter csv(out);
  csv.row({"experiment_id", "carrier", "resolver", "domain", "second_lookup",
           "responded", "resolution_ms", "addresses"});
  std::string addresses;
  for (const auto r : records.resolutions()) {
    addresses.clear();
    for (const auto address : r.addresses) {
      if (!addresses.empty()) addresses += ' ';
      addresses += NetText(address).view();
    }
    csv.typed_row(r.experiment_id,
                  records.carrier_name(r.context().carrier_index),
                  measure::resolver_kind_name(r.resolver),
                  cdn::study_domains()[r.domain_index].host,
                  int(r.second_lookup), int(r.responded), r.resolution_ms,
                  addresses);
  }
}

void export_probes_csv(const measure::RecordStore& records,
                       std::ostream& out) {
  util::CsvWriter csv(out);
  csv.row({"experiment_id", "carrier", "target_kind", "resolver", "domain",
           "target_ip", "probe", "responded", "rtt_ms"});
  for (const auto p : records.probes()) {
    csv.typed_row(p.experiment_id,
                  records.carrier_name(p.context().carrier_index),
                  target_kind_name(p.target_kind),
                  measure::resolver_kind_name(p.resolver),
                  p.target_kind == measure::ProbeTargetKind::kReplica
                      ? std::string_view(
                            cdn::study_domains()[p.domain_index].host)
                      : std::string_view(),
                  NetText(p.target_ip).view(), p.is_http ? "http" : "ping",
                  int(p.responded), p.rtt_ms);
  }
}

void export_traceroutes_csv(const measure::RecordStore& records,
                            std::ostream& out) {
  util::CsvWriter csv(out);
  csv.row({"experiment_id", "carrier", "target_ip", "target_kind", "reached",
           "hops"});
  std::string hops;
  for (const auto t : records.traceroutes()) {
    hops.clear();
    for (size_t i = 0; i < t.hop_count; ++i) {
      if (!hops.empty()) hops += '|';
      hops += t.hop(i);
    }
    csv.typed_row(t.experiment_id,
                  records.carrier_name(t.context().carrier_index),
                  NetText(t.target_ip).view(), target_kind_name(t.target_kind),
                  int(t.reached), hops);
  }
}

void export_resolver_observations_csv(const measure::RecordStore& records,
                                      std::ostream& out) {
  util::CsvWriter csv(out);
  csv.row({"experiment_id", "carrier", "resolver", "responded", "external_ip",
           "external_slash24", "resolution_ms"});
  for (const auto o : records.observations()) {
    csv.typed_row(o.experiment_id,
                  records.carrier_name(o.context().carrier_index),
                  measure::resolver_kind_name(o.resolver), int(o.responded),
                  NetText(o.external_ip).view(),
                  NetText(net::Prefix(o.external_ip.slash24(), 24)).view(),
                  o.resolution_ms);
  }
}

void export_vantage_probes_csv(const measure::RecordStore& records,
                               std::ostream& out) {
  util::CsvWriter csv(out);
  csv.row({"carrier", "target_ip", "ping_responded", "traceroute_reached"});
  for (const auto& v : records.vantage_probes()) {
    csv.typed_row(records.carrier_name(v.carrier_index),
                  NetText(v.target_ip).view(), int(v.ping_responded),
                  int(v.traceroute_reached));
  }
}

int export_records(const measure::RecordStore& records,
                   const std::string& directory) {
  check_records_integrity(records);
  struct FileSpec {
    const char* name;
    void (*write)(const measure::RecordStore&, std::ostream&);
  };
  const FileSpec files[] = {
      {"experiments.csv", export_experiments_csv},
      {"resolutions.csv", export_resolutions_csv},
      {"probes.csv", export_probes_csv},
      {"traceroutes.csv", export_traceroutes_csv},
      {"resolver_observations.csv", export_resolver_observations_csv},
      {"vantage_probes.csv", export_vantage_probes_csv},
  };
  int written = 0;
  for (const auto& spec : files) {
    std::ofstream out(directory + "/" + spec.name);
    if (!out.good()) continue;
    spec.write(records, out);
    if (out.good()) ++written;
  }
  std::ofstream manifest(directory + "/MANIFEST.txt");
  if (manifest.good()) {
    manifest << "curtain dataset export\n"
             << "experiments: " << records.experiment_count() << "\n"
             << "resolutions: " << records.resolution_count() << "\n"
             << "probes: " << records.probe_count() << "\n"
             << "traceroutes: " << records.traceroute_count() << "\n"
             << "resolver_observations: " << records.observation_count()
             << "\n"
             << "vantage_probes: " << records.vantage_count() << "\n";
    if (manifest.good()) ++written;
  }
  return written;
}

}  // namespace curtain::analysis
