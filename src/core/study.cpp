#include "core/study.h"

#include <chrono>

#include "measure/vantage.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "util/flags.h"
#include "util/logging.h"

namespace curtain::core {
namespace {

// Wall-clock use here is waived for the linter: it times the run phases
// for the RunReport only and never feeds a simulated result.

/// The stall watchdog flags a shard slower than this multiple of the
/// median shard wall.
constexpr double kStallFactor = 4.0;

/// Real (not simulated) elapsed milliseconds since `start`.
double wall_ms_since(std::chrono::steady_clock::time_point start) {  // lint: wallclock
  const auto elapsed = std::chrono::steady_clock::now() - start;  // lint: wallclock
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

/// "NAME=value (kind, default D, range R) — help", one per knob.
std::vector<std::string> flag_listing() {
  std::vector<std::string> lines;
  for (const util::FlagInfo& flag : util::describe_flags()) {
    std::string line = flag.name;
    line += "=";
    line += flag.value;
    line += " (";
    line += flag.kind;
    line += ", default ";
    line += flag.fallback;
    if (flag.range[0] != '-' || flag.range[1] != '\0') {
      line += ", range ";
      line += flag.range;
    }
    line += ") — ";
    line += flag.help;
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace

Study::Study(Scenario scenario)
    : scenario_(std::move(scenario)), campaign_(scenario_.campaign_config()) {
  // Arm the flight recorder before anything allocates, so the world-build
  // phase and the build's memory growth land on the timeline. Profiling
  // is result-invisible: the recorder only ever *observes* the run.
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  if (!scenario_.profile_out.empty()) {
    recorder.enable();
    armed_recorder_ = true;
  }
  const bool profiling = armed_recorder_ && recorder.enabled();
  const int64_t build_start_us = profiling ? recorder.now_us() : 0;

  const auto build_start = std::chrono::steady_clock::now();  // lint: wallclock
  world_ = std::make_unique<World>(scenario_);
  report_.add_phase("world_build", wall_ms_since(build_start));
  if (profiling) {
    recorder.record_phase(0, "world_build", build_start_us,
                          recorder.now_us());
  }

  exec::EngineConfig engine_config;
  engine_config.seed = scenario_.seed;
  engine_config.workers = scenario_.shards;
  engine_config.cohorts = scenario_.cohorts;
  engine_config.campaign = campaign_;
  engine_config.experiment = scenario_.experiment;
  std::vector<exec::CampaignEngine::CarrierRef> carriers;
  for (size_t c = 0; c < world_->carriers().size(); ++c) {
    carriers.push_back(exec::CampaignEngine::CarrierRef{
        world_->carrier(c), static_cast<int>(c)});
  }
  engine_ = std::make_unique<exec::CampaignEngine>(
      measure::WorldView{world_->topology(), world_->registry()},
      world_->research_apex(), std::move(carriers), engine_config);
}

Study::~Study() {
  // A profiled study that never ran must not leave the process-wide
  // recorder armed for an unrelated later study.
  if (armed_recorder_ && !ran_) {
    obs::FlightRecorder::instance().disable();
    obs::FlightRecorder::instance().clear();
  }
}

void Study::run() {
  if (ran_) return;
  ran_ = true;

  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  const bool profiling = armed_recorder_ && recorder.enabled();

  const int64_t campaign_start_us = profiling ? recorder.now_us() : 0;
  const auto campaign_start = std::chrono::steady_clock::now();  // lint: wallclock
  engine_->run(records_);
  report_.add_phase("campaign", wall_ms_since(campaign_start));
  if (profiling) {
    recorder.record_phase(0, "campaign", campaign_start_us,
                          recorder.now_us());
  }

  // Table 4's sweep: probe every observed external resolver from the
  // wired vantage point at the end of the campaign.
  const int64_t sweep_start_us = profiling ? recorder.now_us() : 0;
  const auto sweep_start = std::chrono::steady_clock::now();  // lint: wallclock
  net::Rng vantage_rng(net::mix_key(scenario_.seed, net::hash_tag("vantage")));
  measure::VantageProber prober(
      measure::WorldView{world_->topology(), world_->registry()},
      world_->vantage_node(), world_->vantage_ip());
  prober.probe_observed_resolvers(
      records_, net::SimTime::from_days(campaign_.duration_days), vantage_rng);
  report_.add_phase("vantage_sweep", wall_ms_since(sweep_start));
  if (profiling) {
    recorder.record_phase(0, "vantage_sweep", sweep_start_us,
                          recorder.now_us());
  }

  report_.add_total("experiments",
                    static_cast<double>(records_.experiment_count()));
  report_.add_total("resolutions",
                    static_cast<double>(records_.resolution_count()));
  report_.add_total("probes", static_cast<double>(records_.total_probes()));
  report_.add_total("traces", static_cast<double>(records_.trace_count()));

  // Self-describing reports: a committed report is meaningless without
  // the execution configuration that produced it.
  report_.config.workers = scenario_.shards;
  report_.config.cohorts = engine_->cohorts_per_carrier();
  report_.config.shards = engine_->shard_count();
  report_.config.flags = flag_listing();

  if (profiling) {
    // Memory gauges are host-dependent, so they are registered only on
    // profiled runs: the default metrics export must stay byte-identical
    // across hosts and across recorder on/off.
    obs::metrics()
        .gauge("curtain_mem_records_bytes",
               "merged record-block heap bytes (approx, profiled runs only)")
        .set(static_cast<double>(records_.approx_bytes()));
    obs::metrics()
        .gauge("curtain_mem_fleet_arena_bytes",
               "SoA fleet arena bytes across all carriers")
        .set(static_cast<double>(engine_->fleet_arena_bytes()));
    const obs::LaneMemory lanes = world_->approx_lane_state_bytes();
    obs::metrics()
        .gauge("curtain_mem_dns_cache_bytes",
               "DNS cache bytes held past device timelines (approx)")
        .set(static_cast<double>(lanes.cache_bytes));
    obs::metrics()
        .gauge("curtain_mem_lane_state_bytes",
               "non-cache query-time state bytes held past device "
               "timelines (approx)")
        .set(static_cast<double>(lanes.state_bytes));
    obs::metrics()
        .gauge("curtain_mem_rss_bytes", "resident set size at end of run")
        .set(static_cast<double>(obs::read_current_rss_bytes()));
    obs::metrics()
        .gauge("curtain_mem_rss_peak_bytes", "peak resident set size")
        .set(static_cast<double>(obs::read_peak_rss_bytes()));

    const obs::FlightRecorder::Dump dump = recorder.dump();
    report_.profile = obs::build_profile(dump, kStallFactor,
                                         obs::read_peak_rss_bytes());
    for (const std::string& label : report_.profile.stalled_labels()) {
      CURTAIN_WARN() << "stall watchdog: shard " << label << " exceeded "
                     << report_.profile.stall_factor
                     << "x the median shard wall ("
                     << report_.profile.median_shard_wall_ms << " ms)";
    }
    if (!obs::write_chrome_trace(scenario_.profile_out, dump)) {
      CURTAIN_WARN() << "failed to write chrome trace to "
                     << scenario_.profile_out;
    } else {
      CURTAIN_INFO() << "wrote chrome trace to " << scenario_.profile_out;
    }
    recorder.disable();
    recorder.clear();
  }

  if (!scenario_.metrics_out.empty()) {
    const bool ok = obs::write_metrics_file(scenario_.metrics_out,
                                            obs::metrics().snapshot(), &report_);
    if (!ok) {
      CURTAIN_WARN() << "failed to write metrics to " << scenario_.metrics_out;
    } else {
      CURTAIN_INFO() << "wrote metrics to " << scenario_.metrics_out;
    }
  }
}

std::string Study::summary() const {
  std::string out;
  out += "devices=" + std::to_string(device_count());
  out += " experiments=" + std::to_string(records_.experiment_count());
  out += " resolutions=" + std::to_string(records_.resolution_count());
  out += " probes=" + std::to_string(records_.probe_count());
  out += " traceroutes=" + std::to_string(records_.traceroute_count());
  out += " days=" + std::to_string(campaign_.duration_days);
  if (!report_.empty()) out += report_.summary_suffix();
  return out;
}

}  // namespace curtain::core
