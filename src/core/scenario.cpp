#include "core/scenario.h"

#include "util/contract.h"
#include "util/flags.h"
#include "util/logging.h"

namespace curtain::core {

Scenario Scenario::paper_2014() { return Scenario{}; }

Scenario Scenario::from_env() {
  util::init_log_level_from_env();
  Scenario scenario;
  scenario.seed = util::study_seed();
  scenario.scale = util::campaign_scale();
  scenario.shards = util::campaign_shards();
  scenario.cohorts = util::campaign_cohorts();
  scenario.metrics_out = util::env_string("CURTAIN_METRICS_OUT", "");
  scenario.profile_out = util::profile_out();
  return scenario;
}

Scenario& Scenario::with_seed(uint64_t value) {
  seed = value;
  return *this;
}

Scenario& Scenario::with_scale(double value) {
  if (value <= 0.0) value = 0.05;
  scale = value > 1.0 ? 1.0 : value;
  return *this;
}

Scenario& Scenario::with_shards(int value) {
  shards = value < 1 ? 1 : value;
  return *this;
}

Scenario& Scenario::with_cohorts(int value) {
  if (value < 0) value = 0;
  cohorts = value > 64 ? 64 : value;
  return *this;
}

Scenario& Scenario::with_profile_out(std::string path) {
  profile_out = std::move(path);
  return *this;
}

Scenario& Scenario::with_google_ecs(bool enabled) {
  google_ecs = enabled;
  return *this;
}

Scenario& Scenario::with_cdn_answer_ttl(uint32_t ttl_s) {
  cdn_answer_ttl_s = ttl_s;
  return *this;
}

Scenario& Scenario::with_carriers(
    std::vector<cellular::CarrierProfile> profiles) {
  carrier_profiles = std::move(profiles);
  return *this;
}

measure::CampaignConfig Scenario::campaign_config() const {
  // with_scale() clamps, but `scale` is a public field: catch direct writes.
  CURTAIN_CHECK(scale > 0.0 && scale <= 1.0)
      << "scenario scale " << scale << " outside (0, 1]";
  CURTAIN_CHECK(shards >= 1) << "scenario shards " << shards << " < 1";
  CURTAIN_CHECK(cohorts >= 0 && cohorts <= 64)
      << "scenario cohorts " << cohorts << " outside [0, 64]";
  return measure::CampaignConfig::scaled(scale);
}

const std::vector<cellular::CarrierProfile>& Scenario::carrier_table() const {
  return carrier_profiles.empty() ? cellular::study_carriers()
                                  : carrier_profiles;
}

}  // namespace curtain::core
