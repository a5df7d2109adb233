#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "analysis/export.h"
#include "analysis/figures.h"
#include "cellular/carrier_profile.h"
#include "core/study.h"
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

}  // namespace
}  // namespace curtain::analysis
