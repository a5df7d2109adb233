// lint-hot-path: every writer below formats one row per record; rows are
// built from views, cells formatted once per call and lists written in
// place, never per-cell strings.
#include "analysis/export.h"

#include <cstring>
#include <fstream>
#include <span>
#include <string_view>

#include "cdn/domains.h"
#include "cellular/radio.h"
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

/// An address or prefix written straight into the row (util cannot see
/// net types).
template <typename Net>
auto net_cell(Net value) {
  const auto write = [value](char* at) {
    return value.to_chars(at, at + Net::kMaxChars);
  };
  return util::CsvInPlace{Net::kMaxChars, write};
}

/// A resolution's answers, space-separated, written straight into the row.
/// Each address may use all kMaxChars bytes of its room while formatting.
auto address_list_cell(std::span<const net::Ipv4Addr> addresses) {
  const auto write = [addresses](char* at) {
    for (size_t i = 0; i < addresses.size(); ++i) {
      if (i != 0) *at++ = ' ';
      at = addresses[i].to_chars(at, at + net::Ipv4Addr::kMaxChars);
    }
    return at;
  };
  return util::CsvInPlace{
      addresses.size() * (net::Ipv4Addr::kMaxChars + 1), write};
}

/// A traceroute's hop names, '|'-separated, written straight into the row.
auto hop_list_cell(const measure::TracerouteRow& row) {
  size_t bytes = row.hop_count;
  for (size_t i = 0; i < row.hop_count; ++i) bytes += row.hop(i).size();
  const auto write = [row](char* at) {
    for (size_t i = 0; i < row.hop_count; ++i) {
      if (i != 0) *at++ = '|';
      const std::string_view hop = row.hop(i);
      std::memcpy(at, hop.data(), hop.size());
      at += hop.size();
    }
    return at;
  };
  return util::CsvInPlace{bytes, write};
}

/// Every fixed-table name a row can hold, each formatted as a CSV cell
/// once per export call: carriers by carrier_index, domain hosts by
/// domain_index, enum names by value. Rows copy the cells.
class NameCells {
 public:
  explicit NameCells(const measure::RecordStore& records) {
    for (const auto& carrier : records.carriers()) carriers_.add(carrier.name);
    for (const auto& domain : cdn::study_domains()) domains_.add(domain.host);
    for (size_t i = 0; i < measure::kNumResolverKinds; ++i) {
      resolvers_.add(
          measure::resolver_kind_name(static_cast<measure::ResolverKind>(i)));
    }
    for (size_t i = 0; i < measure::kNumProbeTargetKinds; ++i) {
      target_kinds_.add(
          target_kind_name(static_cast<measure::ProbeTargetKind>(i)));
    }
    for (size_t i = 0; i < cellular::all_radio_techs().size(); ++i) {
      radios_.add(
          cellular::radio_tech_name(static_cast<cellular::RadioTech>(i)));
    }
    probes_.add("ping");
    probes_.add("http");
  }

  util::CsvCell carrier(int index) const {
    return carriers_[static_cast<size_t>(index)];
  }
  util::CsvCell domain(uint16_t index) const { return domains_[index]; }
  util::CsvCell resolver(measure::ResolverKind kind) const {
    return resolvers_[static_cast<size_t>(kind)];
  }
  util::CsvCell target_kind(measure::ProbeTargetKind kind) const {
    return target_kinds_[static_cast<size_t>(kind)];
  }
  util::CsvCell radio(cellular::RadioTech tech) const {
    return radios_[static_cast<size_t>(tech)];
  }
  util::CsvCell probe(bool is_http) const { return probes_[is_http ? 1 : 0]; }

 private:
  util::CsvCells carriers_;
  util::CsvCells domains_;
  util::CsvCells resolvers_;
  util::CsvCells target_kinds_;
  util::CsvCells radios_;
  util::CsvCells probes_;
};

}  // namespace

void export_experiments_csv(const measure::RecordStore& records,
                            std::ostream& out) {
  const NameCells names(records);
  util::CsvWriter csv(out);
  csv.row({"experiment_id", "device_id", "carrier", "started_hours", "radio",
           "lat", "lon", "gateway", "public_ip", "configured_resolver"});
  for (const auto experiment : records.experiments()) {
    const measure::ExperimentContext& context = experiment.context();
    csv.typed_row(experiment.experiment_id, context.device_id,
                  names.carrier(context.carrier_index),
                  context.started.hours(), names.radio(context.radio),
                  context.location.lat_deg, context.location.lon_deg,
                  context.gateway_index, net_cell(context.public_ip),
                  net_cell(context.configured_resolver));
  }
}

void export_resolutions_csv(const measure::RecordStore& records,
                            std::ostream& out) {
  const NameCells names(records);
  util::CsvWriter csv(out);
  csv.row({"experiment_id", "carrier", "resolver", "domain", "second_lookup",
           "responded", "resolution_ms", "addresses"});
  for (const auto r : records.resolutions()) {
    csv.typed_row(r.experiment_id, names.carrier(r.context().carrier_index),
                  names.resolver(r.resolver), names.domain(r.domain_index),
                  int(r.second_lookup), int(r.responded), r.resolution_ms,
                  address_list_cell(r.addresses));
  }
}

void export_probes_csv(const measure::RecordStore& records,
                       std::ostream& out) {
  const NameCells names(records);
  util::CsvWriter csv(out);
  csv.row({"experiment_id", "carrier", "target_kind", "resolver", "domain",
           "target_ip", "probe", "responded", "rtt_ms"});
  for (const auto p : records.probes()) {
    csv.typed_row(p.experiment_id, names.carrier(p.context().carrier_index),
                  names.target_kind(p.target_kind), names.resolver(p.resolver),
                  p.target_kind == measure::ProbeTargetKind::kReplica
                      ? names.domain(p.domain_index)
                      : util::CsvCell{},
                  net_cell(p.target_ip), names.probe(p.is_http),
                  int(p.responded), p.rtt_ms);
  }
}

void export_traceroutes_csv(const measure::RecordStore& records,
                            std::ostream& out) {
  const NameCells names(records);
  util::CsvWriter csv(out);
  csv.row({"experiment_id", "carrier", "target_ip", "target_kind", "reached",
           "hops"});
  for (const auto t : records.traceroutes()) {
    csv.typed_row(t.experiment_id, names.carrier(t.context().carrier_index),
                  net_cell(t.target_ip), names.target_kind(t.target_kind),
                  int(t.reached), hop_list_cell(t));
  }
}

void export_resolver_observations_csv(const measure::RecordStore& records,
                                      std::ostream& out) {
  const NameCells names(records);
  util::CsvWriter csv(out);
  csv.row({"experiment_id", "carrier", "resolver", "responded", "external_ip",
           "external_slash24", "resolution_ms"});
  for (const auto o : records.observations()) {
    csv.typed_row(o.experiment_id, names.carrier(o.context().carrier_index),
                  names.resolver(o.resolver), int(o.responded),
                  net_cell(o.external_ip),
                  net_cell(net::Prefix(o.external_ip.slash24(), 24)),
                  o.resolution_ms);
  }
}

void export_vantage_probes_csv(const measure::RecordStore& records,
                               std::ostream& out) {
  const NameCells names(records);
  util::CsvWriter csv(out);
  csv.row({"carrier", "target_ip", "ping_responded", "traceroute_reached"});
  for (const auto& v : records.vantage_probes()) {
    csv.typed_row(names.carrier(v.carrier_index), net_cell(v.target_ip),
                  int(v.ping_responded), int(v.traceroute_reached));
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
