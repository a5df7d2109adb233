// Scenario: the single value type describing one study configuration.
//
// It collapses the old StudyConfig / WorldConfig / CampaignConfig trio —
// which duplicated the seed three times and scattered knobs across layers
// — into one flat, copyable description with exactly one seed, one scale
// and one shards knob. Everything derived (campaign duration, shard RNG
// streams, per-service build seeds) is mixed from Scenario::seed via
// net::mix_key / net::hash_tag; no component reads a second seed field.
//
//   core::Study study(core::Scenario::paper_2014()
//                         .with_scale(0.05)
//                         .with_shards(4));
//   study.run();
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cellular/carrier_profile.h"
#include "measure/campaign.h"

namespace curtain::core {

struct Scenario {
  // --- the one seed, scale and parallelism knob -------------------------
  uint64_t seed = 20141105;  ///< study-wide RNG seed (the IMC'14 date)
  /// Campaign scale in (0,1]: 1.0 reproduces the paper's five-month,
  /// ~28k-experiment campaign; smaller values shorten the window.
  double scale = 0.05;
  /// Worker threads in the campaign shard pool (CURTAIN_SHARDS; 0 in the
  /// environment means one per hardware thread). The fleet is partitioned
  /// into device cohorts per carrier (see `cohorts`); workers pull shards
  /// from a deterministic queue, so results are byte-identical for every
  /// value (see exec/engine.h).
  int shards = 1;
  /// Device cohorts per carrier (CURTAIN_COHORTS); 0 auto-sizes from the
  /// worker count. Like `shards`, purely a wall-clock knob: exports are
  /// byte-identical for every cohort count (see exec/engine.h).
  int cohorts = 0;

  // --- outputs ----------------------------------------------------------
  /// When non-empty, Study::run() writes the metrics registry there on
  /// completion (".prom" suffix: Prometheus text; anything else: JSON).
  std::string metrics_out;
  /// When non-empty, Study::run() arms the flight recorder and writes a
  /// chrome://tracing trace_event JSON file there on completion
  /// (CURTAIN_PROFILE_OUT; obs/flight_recorder.h). Profiling never
  /// perturbs results: exports are byte-identical either way.
  std::string profile_out;

  // --- world shape ------------------------------------------------------
  int google_sites = 30;  ///< paper §6.1: 30 distributed /24s
  uint32_t cdn_answer_ttl_s = 30;  ///< the short TTLs behind Fig. 7
  /// Enable EDNS client-subnet on Google Public DNS (RFC 7871) — the
  /// "natural evolution of DNS" remedy; off in the paper-era baseline.
  bool google_ecs = false;
  /// Carrier set to build; empty = the six study carriers. Pass
  /// cellular::xu_era_carriers() to build the 3G-era baseline world.
  std::vector<cellular::CarrierProfile> carrier_profiles;

  /// The paper's baseline configuration (identical to `Scenario{}`;
  /// spelled out for readable call sites).
  static Scenario paper_2014();

  /// Reads CURTAIN_SEED / CURTAIN_SCALE / CURTAIN_SHARDS /
  /// CURTAIN_COHORTS / CURTAIN_METRICS_OUT / CURTAIN_PROFILE_OUT from
  /// the environment and applies CURTAIN_LOG to the logger.
  static Scenario from_env();

  // --- chainable setters ------------------------------------------------
  Scenario& with_seed(uint64_t value);
  Scenario& with_scale(double value);
  Scenario& with_shards(int value);
  Scenario& with_cohorts(int value);
  Scenario& with_profile_out(std::string path);
  Scenario& with_google_ecs(bool enabled);
  Scenario& with_cdn_answer_ttl(uint32_t ttl_s);
  Scenario& with_carriers(std::vector<cellular::CarrierProfile> profiles);

  /// Campaign tunables derived from `scale` (the only way a campaign
  /// config is ever produced).
  measure::CampaignConfig campaign_config() const;

  /// The carrier table this scenario builds (resolves the empty-profiles
  /// default); every record's carrier_index points into it.
  const std::vector<cellular::CarrierProfile>& carrier_table() const;
};

}  // namespace curtain::core
