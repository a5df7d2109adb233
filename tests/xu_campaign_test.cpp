// End-to-end campaign through the 3G-era baseline world: the whole
// measurement pipeline must work against alternate carrier sets, and the
// era's signature properties (slow radio, few egress points) must show in
// the dataset.
#include <gtest/gtest.h>

#include "analysis/figures.h"
#include "core/study.h"

namespace curtain {
namespace {

class XuCampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = new core::Study(core::Scenario::paper_2014()
                                 .with_seed(314)
                                 .with_scale(0.01)
                                 .with_carriers(cellular::xu_era_carriers()));
    study_->run();
  }
  static void TearDownTestSuite() {
    delete study_;
    study_ = nullptr;
  }
  static core::Study* study_;
};

core::Study* XuCampaignTest::study_ = nullptr;

TEST_F(XuCampaignTest, FleetSizedByXuProfiles) {
  // Four US carriers: 33 + 9 + 31 + 64 devices.
  EXPECT_EQ(study_->device_count(), 137u);
  EXPECT_GT(study_->records().experiment_count(), 200u);
}

TEST_F(XuCampaignTest, NoLteAnywhere) {
  for (const auto experiment : study_->records().experiments()) {
    EXPECT_NE(experiment.context().radio, cellular::RadioTech::kLte);
  }
}

TEST_F(XuCampaignTest, ResolutionTimes3GClass) {
  // Medians sit far above the LTE era's 40-55 ms.
  const auto group =
      analysis::fig5_fig6_resolution_times(study_->records(), "US");
  for (const auto& [carrier, cdf] : group) {
    EXPECT_GT(cdf.median(), 90.0) << carrier;
  }
}

TEST_F(XuCampaignTest, FewEgressPointsDiscovered) {
  const auto stats = analysis::egress_points(study_->records());
  for (const auto& row : stats) {
    if (row.egress_points == 0) continue;  // KR rows are empty here
    EXPECT_LE(row.egress_points, 6u);  // Xu et al.'s 4-6
  }
}

TEST_F(XuCampaignTest, PipelineStillIdentifiesResolvers) {
  size_t responded = 0;
  for (const auto& observation : study_->records().observations()) {
    responded += observation.responded ? 1 : 0;
  }
  EXPECT_GT(responded, study_->records().observation_count() / 2);
}

}  // namespace
}  // namespace curtain
