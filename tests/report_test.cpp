#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "core/study.h"

namespace curtain::analysis {
namespace {

TEST(Report, GeneratesAllSections) {
  const core::Scenario scenario =
      core::Scenario::paper_2014().with_seed(99).with_scale(0.003);
  core::Study study(scenario);
  study.run();

  std::ostringstream out;
  ReportConfig report_config;
  report_config.scale = scenario.scale;
  report_config.seed = scenario.seed;
  write_report(study.records(), report_config, out);
  const std::string text = out.str();

  for (const char* needle :
       {"# EXPERIMENTS", "Table 1", "Table 2", "Figure 2", "Figure 3",
        "Table 3", "Figure 4", "Figures 5/6", "Figure 7", "Table 4",
        "Figures 8/9", "Figure 10", "Section 5.2", "Table 5", "Figure 11",
        "Figure 12", "Figure 13", "Figure 14", "Measured headline"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // Every carrier appears.
  for (const char* carrier :
       {"AT&T", "Sprint", "T-Mobile", "Verizon", "SK Telecom", "LG U+"}) {
    EXPECT_NE(text.find(carrier), std::string::npos) << carrier;
  }
  // Markdown tables are well-formed (every table row starts and ends with |).
  size_t table_rows = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line.front() == '|') {
      EXPECT_EQ(line.back(), '|') << line;
      ++table_rows;
    }
  }
  EXPECT_GT(table_rows, 60u);
}

// Table 1's "Active devices" column counts the distinct devices that ran
// at least one experiment, per carrier — not the paper's client count,
// which the fleet is built to match exactly.
TEST(Report, TableOneCountsActiveDevices) {
  // Short enough that some enrolled devices never run an experiment.
  const core::Scenario scenario =
      core::Scenario::paper_2014().with_seed(7).with_scale(0.001);
  core::Study study(scenario);
  study.run();
  const measure::RecordStore& records = study.records();

  std::vector<std::set<uint64_t>> devices(records.carriers().size());
  for (const auto experiment : records.experiments()) {
    const measure::ExperimentContext& context = experiment.context();
    devices[static_cast<size_t>(context.carrier_index)].insert(
        context.device_id);
  }
  std::ostringstream out;
  write_report(records, ReportConfig{}, out);
  const std::string text = out.str();
  const size_t table = text.find("## Table 1");
  ASSERT_NE(table, std::string::npos);
  EXPECT_NE(text.find("| Paper clients | Active devices |", table),
            std::string::npos);

  size_t idle_carriers = 0;
  for (size_t c = 0; c < records.carriers().size(); ++c) {
    const auto& profile = records.carriers()[c];
    const std::string row = "| " + profile.name + " | " + profile.country +
                            " | " + std::to_string(profile.study_clients) +
                            " | " + std::to_string(devices[c].size()) + " |";
    EXPECT_NE(text.find(row, table), std::string::npos) << row;
    if (devices[c].size() < static_cast<size_t>(profile.study_clients)) {
      ++idle_carriers;
    }
  }
  // Otherwise the column could still be a copy of the paper count.
  EXPECT_GT(idle_carriers, 0u);
}

}  // namespace
}  // namespace curtain::analysis
