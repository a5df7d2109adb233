#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "analysis/export.h"
#include "analysis/figures.h"
#include "cdn/domains.h"
#include "cellular/carrier_profile.h"
#include "cellular/radio.h"
#include "core/study.h"
#include "util/csv.h"
#include "util/strings.h"

namespace curtain::analysis {
namespace {

using measure::RecordStore;

RecordStore tiny_dataset() {
  RecordStore d;
  measure::ExperimentContext context;
  context.device_id = 42;
  context.carrier_index = 3;  // Verizon
  context.started = net::SimTime::from_hours(5.0);
  context.radio = cellular::RadioTech::kLte;
  context.location = {40.0, -74.0};
  context.public_ip = net::Ipv4Addr{100, 1, 2, 3};
  context.configured_resolver = net::Ipv4Addr{10, 0, 0, 53};
  d.add_experiment(context);

  measure::DnsMeasurement r;
  r.resolver = measure::ResolverKind::kLocal;
  r.domain_index = 6;  // m.yelp.com
  r.responded = true;
  r.resolution_ms = 44.25;
  r.addresses = {net::Ipv4Addr{20, 0, 1, 1}, net::Ipv4Addr{20, 0, 1, 2}};
  d.add_resolution(std::move(r));

  measure::ProbeMeasurement p;
  p.target_kind = measure::ProbeTargetKind::kReplica;
  p.resolver = measure::ResolverKind::kGoogle;
  p.domain_index = 6;
  p.target_ip = net::Ipv4Addr{20, 0, 1, 1};
  p.is_http = true;
  p.responded = true;
  p.rtt_ms = 77.5;
  d.add_probe(p);

  measure::TracerouteMeasurement t;
  t.target_ip = net::Ipv4Addr{20, 0, 1, 1};
  t.reached = true;
  t.hop_names = {"Verizon-pgw-3", "ix-Chicago"};
  d.add_traceroute(std::move(t));

  measure::ResolverObservation o;
  o.resolver = measure::ResolverKind::kLocal;
  o.responded = true;
  o.external_ip = net::Ipv4Addr{20, 7, 7, 7};
  d.add_observation(o);

  measure::VantageProbe v;
  v.carrier_index = 3;
  v.target_ip = net::Ipv4Addr{20, 7, 7, 7};
  v.ping_responded = true;
  d.add_vantage(v);
  return d;
}

std::vector<std::string> lines_of(const std::string& text) {
  auto lines = util::split(text, '\n');
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

TEST(Export, ExperimentsCsvShape) {
  std::ostringstream out;
  export_experiments_csv(tiny_dataset(), out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(util::starts_with(lines[0], "experiment_id,device_id,carrier"));
  EXPECT_NE(lines[1].find("Verizon"), std::string::npos);
  EXPECT_NE(lines[1].find("LTE"), std::string::npos);
  EXPECT_NE(lines[1].find("100.1.2.3"), std::string::npos);
}

TEST(Export, ResolutionsCsvJoinsDomainAndAddresses) {
  std::ostringstream out;
  export_resolutions_csv(tiny_dataset(), out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("m.yelp.com"), std::string::npos);
  EXPECT_NE(lines[1].find("20.0.1.1 20.0.1.2"), std::string::npos);
}

TEST(Export, ProbesCsvKinds) {
  std::ostringstream out;
  export_probes_csv(tiny_dataset(), out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("replica"), std::string::npos);
  EXPECT_NE(lines[1].find("http"), std::string::npos);
  EXPECT_NE(lines[1].find("GoogleDNS"), std::string::npos);
}

TEST(Export, TraceroutesCsvJoinsHops) {
  std::ostringstream out;
  export_traceroutes_csv(tiny_dataset(), out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("Verizon-pgw-3|ix-Chicago"), std::string::npos);
}

TEST(Export, ObservationsCsvHasSlash24) {
  std::ostringstream out;
  export_resolver_observations_csv(tiny_dataset(), out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("20.7.7.0/24"), std::string::npos);
}

TEST(Export, VantageCsv) {
  std::ostringstream out;
  export_vantage_probes_csv(tiny_dataset(), out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("Verizon"), std::string::npos);
}

TEST(Export, WholeDatasetToDirectory) {
  const std::string dir = ::testing::TempDir() + "/curtain_export";
  std::filesystem::create_directories(dir);
  EXPECT_EQ(export_records(tiny_dataset(), dir), 7);
  EXPECT_TRUE(std::filesystem::exists(dir + "/resolutions.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.txt"));
}

TEST(Export, UnwritableDirectoryFailsGracefully) {
  EXPECT_EQ(export_records(tiny_dataset(), "/nonexistent/dir/xyz"), 0);
}

// Carrier names come from the table the run was built from, not from the
// six-carrier study table: a one-carrier SK Telecom world (carrier_index 0)
// must not export its rows as AT&T, study_carriers()[0].
TEST(Export, CarrierNamesComeFromTheRunsCarrierTable) {
  const cellular::CarrierProfile* skt = cellular::find_carrier("SK Telecom");
  ASSERT_NE(skt, nullptr);
  core::Study study(core::Scenario::paper_2014()
                        .with_seed(1)
                        .with_scale(0.01)
                        .with_carriers({*skt}));
  study.run();
  const RecordStore& records = study.records();
  ASSERT_GT(records.experiment_count(), 0u);
  ASSERT_EQ(records.carriers().size(), 1u);

  using Writer = void (*)(const RecordStore&, std::ostream&);
  for (const Writer writer :
       {Writer{export_experiments_csv}, Writer{export_resolutions_csv},
        Writer{export_resolver_observations_csv},
        Writer{export_vantage_probes_csv}}) {
    std::ostringstream out;
    writer(records, out);
    const auto lines = lines_of(out.str());
    ASSERT_GT(lines.size(), 1u);
    for (size_t i = 1; i < lines.size(); ++i) {
      EXPECT_NE(lines[i].find("SK Telecom"), std::string::npos) << lines[i];
      EXPECT_EQ(lines[i].find("AT&T"), std::string::npos) << lines[i];
    }
  }
  const auto bands = fig3_radio_bands(records);
  ASSERT_EQ(bands.size(), 1u);
  EXPECT_EQ(bands.begin()->first, "SK Telecom");
}

// --- Fixed-table names against the per-cell writer ------------------------
//
// The export formats each carrier name, domain host and enum name into a
// CSV cell once per call and copies it into rows. The reference below is
// the writer that decided quoting on every row: each text cell is handed
// to CsvWriter as a view, and the address and hop lists are joined into a
// string first. Both must agree byte for byte on every surface.

const char* reference_kind_name(measure::ProbeTargetKind kind) {
  switch (kind) {
    case measure::ProbeTargetKind::kReplica: return "replica";
    case measure::ProbeTargetKind::kClientResolver: return "client_resolver";
    case measure::ProbeTargetKind::kExternalResolver:
      return "external_resolver";
    case measure::ProbeTargetKind::kPublicVip: return "public_vip";
    case measure::ProbeTargetKind::kBootstrap: return "bootstrap";
  }
  return "?";
}

std::vector<std::string> reference_surfaces(const RecordStore& records) {
  std::vector<std::string> surfaces;
  const auto carrier = [&](const measure::ExperimentContext& context) {
    return std::string_view(records.carrier_name(context.carrier_index));
  };
  {
    std::ostringstream out;
    util::CsvWriter csv(out);
    csv.row({"experiment_id", "device_id", "carrier", "started_hours",
             "radio", "lat", "lon", "gateway", "public_ip",
             "configured_resolver"});
    for (const auto experiment : records.experiments()) {
      const measure::ExperimentContext& c = experiment.context();
      csv.typed_row(experiment.experiment_id, c.device_id, carrier(c),
                    c.started.hours(), cellular::radio_tech_name(c.radio),
                    c.location.lat_deg, c.location.lon_deg, c.gateway_index,
                    c.public_ip.to_string(),
                    c.configured_resolver.to_string());
    }
    surfaces.push_back(out.str());
  }
  {
    std::ostringstream out;
    util::CsvWriter csv(out);
    csv.row({"experiment_id", "carrier", "resolver", "domain",
             "second_lookup", "responded", "resolution_ms", "addresses"});
    for (const auto r : records.resolutions()) {
      std::string addresses;
      for (const auto address : r.addresses) {
        if (!addresses.empty()) addresses += ' ';
        addresses += address.to_string();
      }
      csv.typed_row(r.experiment_id, carrier(r.context()),
                    measure::resolver_kind_name(r.resolver),
                    cdn::study_domains()[r.domain_index].host,
                    int(r.second_lookup), int(r.responded), r.resolution_ms,
                    addresses);
    }
    surfaces.push_back(out.str());
  }
  {
    std::ostringstream out;
    util::CsvWriter csv(out);
    csv.row({"experiment_id", "carrier", "target_kind", "resolver", "domain",
             "target_ip", "probe", "responded", "rtt_ms"});
    for (const auto p : records.probes()) {
      csv.typed_row(p.experiment_id, carrier(p.context()),
                    reference_kind_name(p.target_kind),
                    measure::resolver_kind_name(p.resolver),
                    p.target_kind == measure::ProbeTargetKind::kReplica
                        ? std::string_view(
                              cdn::study_domains()[p.domain_index].host)
                        : std::string_view(),
                    p.target_ip.to_string(), p.is_http ? "http" : "ping",
                    int(p.responded), p.rtt_ms);
    }
    surfaces.push_back(out.str());
  }
  {
    std::ostringstream out;
    util::CsvWriter csv(out);
    csv.row({"experiment_id", "carrier", "target_ip", "target_kind",
             "reached", "hops"});
    for (const auto t : records.traceroutes()) {
      std::string hops;
      for (size_t i = 0; i < t.hop_count; ++i) {
        if (i != 0) hops += '|';
        hops += t.hop(i);
      }
      csv.typed_row(t.experiment_id, carrier(t.context()),
                    t.target_ip.to_string(),
                    reference_kind_name(t.target_kind), int(t.reached), hops);
    }
    surfaces.push_back(out.str());
  }
  {
    std::ostringstream out;
    util::CsvWriter csv(out);
    csv.row({"experiment_id", "carrier", "resolver", "responded",
             "external_ip", "external_slash24", "resolution_ms"});
    for (const auto o : records.observations()) {
      csv.typed_row(o.experiment_id, carrier(o.context()),
                    measure::resolver_kind_name(o.resolver), int(o.responded),
                    o.external_ip.to_string(),
                    net::Prefix(o.external_ip.slash24(), 24).to_string(),
                    o.resolution_ms);
    }
    surfaces.push_back(out.str());
  }
  {
    std::ostringstream out;
    util::CsvWriter csv(out);
    csv.row({"carrier", "target_ip", "ping_responded", "traceroute_reached"});
    for (const auto& v : records.vantage_probes()) {
      csv.typed_row(records.carrier_name(v.carrier_index),
                    v.target_ip.to_string(), int(v.ping_responded),
                    int(v.traceroute_reached));
    }
    surfaces.push_back(out.str());
  }
  return surfaces;
}

std::vector<std::string> exported_surfaces(const RecordStore& records) {
  using Writer = void (*)(const RecordStore&, std::ostream&);
  std::vector<std::string> surfaces;
  for (const Writer writer :
       {Writer{export_experiments_csv}, Writer{export_resolutions_csv},
        Writer{export_probes_csv}, Writer{export_traceroutes_csv},
        Writer{export_resolver_observations_csv},
        Writer{export_vantage_probes_csv}}) {
    std::ostringstream out;
    writer(records, out);
    surfaces.push_back(out.str());
  }
  return surfaces;
}

TEST(Export, FixedTableNamesQuoteAsCsvEscape) {
  // Carrier names that need every kind of quoting, one that needs none,
  // and an empty one.
  std::vector<cellular::CarrierProfile> carriers;
  for (const char* name :
       {"Comma, Wireless", "\"Quoted\" Mobile", "CR\rLF\nTel", "",
        "Plain"}) {
    cellular::CarrierProfile carrier = cellular::study_carriers()[0];
    carrier.name = name;
    carriers.push_back(carrier);
  }
  RecordStore d;
  d.set_carriers(carriers);
  const auto& radios = cellular::all_radio_techs();
  for (size_t c = 0; c < carriers.size(); ++c) {
    measure::ExperimentContext context;
    context.device_id = 100 + c;
    context.carrier_index = static_cast<int>(c);
    context.started = net::SimTime::from_hours(1.5 * double(c));
    context.radio = radios[c % radios.size()];
    context.location = {37.5 + double(c), -122.25};
    context.public_ip = net::Ipv4Addr{255, 255, 255, uint8_t(c)};
    context.configured_resolver = net::Ipv4Addr{0, 0, uint8_t(c), 0};
    d.add_experiment(context);

    for (size_t k = 0; k < measure::kNumResolverKinds; ++k) {
      measure::DnsMeasurement r;
      r.resolver = static_cast<measure::ResolverKind>(k);
      r.domain_index =
          static_cast<uint16_t>((c + k) % cdn::study_domains().size());
      r.responded = k != 0;
      r.second_lookup = k == 2;
      r.resolution_ms = 12.5 * double(k + 1);
      // The local resolver's lookup returns no answers.
      for (size_t a = 0; a < k; ++a) {
        r.addresses.push_back(
            net::Ipv4Addr{uint8_t(10 * a), uint8_t(c), 200, uint8_t(a)});
      }
      d.add_resolution(std::move(r));
    }
    // Every probe target kind, each by ping and by HTTP; only replicas
    // carry a domain.
    for (size_t k = 0; k < measure::kNumProbeTargetKinds; ++k) {
      for (const bool http : {false, true}) {
        measure::ProbeMeasurement p;
        p.target_kind = static_cast<measure::ProbeTargetKind>(k);
        p.resolver = static_cast<measure::ResolverKind>(
            k % measure::kNumResolverKinds);
        p.domain_index = static_cast<uint16_t>(c + k);
        p.target_ip = net::Ipv4Addr{1, uint8_t(k), 99, uint8_t(c)};
        p.is_http = http;
        p.responded = http;
        p.rtt_ms = 0.001 + 33.0 * double(k);
        d.add_probe(p);
      }
    }
    measure::TracerouteMeasurement t;
    t.target_ip = net::Ipv4Addr{9, 9, 9, uint8_t(c)};
    t.target_kind = static_cast<measure::ProbeTargetKind>(
        c % measure::kNumProbeTargetKinds);
    t.reached = c % 2 == 0;
    t.hop_names = {"pgw-1", "ix,Chicago", "*", "say \"hi\""};
    t.hop_names.resize(c % 5);
    d.add_traceroute(std::move(t));
    measure::TracerouteMeasurement quoted;
    quoted.target_ip = net::Ipv4Addr{9, 9, 8, uint8_t(c)};
    quoted.hop_names = {"\"", ","};
    d.add_traceroute(std::move(quoted));

    measure::ResolverObservation o;
    o.resolver = static_cast<measure::ResolverKind>(
        c % measure::kNumResolverKinds);
    o.responded = true;
    o.external_ip = net::Ipv4Addr{172, 16, uint8_t(c), 77};
    o.resolution_ms = 250.0 / double(c + 1);
    d.add_observation(o);

    measure::VantageProbe v;
    v.carrier_index = static_cast<int>(c);
    v.target_ip = net::Ipv4Addr{172, 16, uint8_t(c), 1};
    v.ping_responded = c % 2 == 1;
    d.add_vantage(v);
  }

  const auto expected = reference_surfaces(d);
  const auto actual = exported_surfaces(d);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "surface " << i;
  }
  // The edge cases reached the files.
  EXPECT_NE(actual[0].find("\"Comma, Wireless\""), std::string::npos);
  EXPECT_NE(actual[2].find("\"\"\"Quoted\"\" Mobile\""), std::string::npos);
  EXPECT_NE(actual[3].find("\"pgw-1|ix,Chicago\""), std::string::npos);
}

}  // namespace
}  // namespace curtain::analysis
