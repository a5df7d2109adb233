// The CURTAIN_* environment knobs, declared in one place.
//
// Every knob the tree reads — campaign shape, execution, streaming-record
// and profiling controls — is parsed and clamped here and nowhere else.
// Each has a typed accessor (the single definition of its default and
// clamp), and describe_flags() renders the whole table as a `--help`-style
// listing that Study emits into RunReport::Config, so a run's effective
// knob settings are always visible in its report.
//
// Benches scale their campaign size by CURTAIN_SCALE so the default
// `for b in build/bench/*; do $b; done` loop stays fast, while
// CURTAIN_SCALE=1.0 reproduces the paper's full 28k-experiment campaign.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace curtain::util {

/// Reads env var `name`; returns `fallback` if unset or unparsable
/// (env_double also rejects nan and ±inf).
double env_double(const char* name, double fallback);
uint64_t env_u64(const char* name, uint64_t fallback);
std::string env_string(const char* name, const std::string& fallback);

// --- campaign shape ------------------------------------------------------

/// CURTAIN_SCALE in (0,1]: fraction of the paper-scale campaign to run.
double campaign_scale();

/// CURTAIN_SEED: study-wide RNG seed (default 20141105, the IMC'14 date).
uint64_t study_seed();

// --- execution -----------------------------------------------------------

/// CURTAIN_SHARDS in [1, 64]: worker threads in the campaign shard pool
/// (default 1; 0 = one per hardware thread). Purely a wall-clock knob;
/// results are identical for every value (see exec/engine.h).
int campaign_shards();

/// CURTAIN_COHORTS in [0, 64]: device cohorts per carrier (0, the
/// default, auto-sizes from the worker count). Purely a wall-clock knob;
/// results are identical for every value (see exec/engine.h).
int campaign_cohorts();

// --- streaming records ---------------------------------------------------

/// CURTAIN_BLOCK_ROWS in [256, 1048576] (default 8192): row budget of one
/// measurement record block (measure/record_block.h). Purely a memory
/// granularity knob; results are identical for every value.
size_t record_block_rows();

/// CURTAIN_RSS_CEILING_MB in [0, 1048576] (default 0 = unenforced):
/// resident-set ceiling for memory-bounded campaign runs. Consumers
/// (bench/micro_fleet, scripts/check.sh rss-smoke) fail when peak RSS
/// crosses it; the library itself only reports it.
size_t rss_ceiling_mb();

// --- observability -------------------------------------------------------

/// CURTAIN_METRICS_OUT: when non-empty, Study::run() writes the metrics
/// registry snapshot to this file (obs/export.h).
std::string metrics_out();

/// CURTAIN_PROFILE_OUT: when non-empty, Study::run() arms the flight
/// recorder and writes a chrome://tracing trace_event JSON file here
/// (obs/flight_recorder.h). Profiling never perturbs results.
std::string profile_out();

/// CURTAIN_PROFILE_STALL_K in [1.5, 100] (default 4): the stall
/// watchdog flags shards slower than this multiple of the median shard
/// wall in the run report.
double profile_stall_factor();

/// CURTAIN_LOG: log level (debug|info|warn|error|off); parsed by
/// util::init_log_level_from_env (util/logging.h). Empty when unset.
std::string log_flag();

/// CURTAIN_BENCH_CSV_DIR: when non-empty, benches mirror every printed
/// CDF into CSV files under this directory (bench/bench_common.h).
std::string bench_csv_dir();

// --- the listing ---------------------------------------------------------

/// One row of the knob table: static declaration plus the resolved
/// (post-clamp) value in the current environment.
struct FlagInfo {
  const char* name;      ///< environment variable
  const char* kind;      ///< "double" | "u64" | "string"
  const char* fallback;  ///< rendered default
  const char* range;     ///< rendered clamp rule; "-" if unclamped
  const char* help;      ///< one-line description
  std::string value;     ///< resolved value for this process
};

/// Every CURTAIN_* knob, in declaration order.
std::vector<FlagInfo> describe_flags();

}  // namespace curtain::util
