#include "util/flags.h"

#include <cmath>
#include <cstdlib>
#include <thread>

#include "util/strings.h"

namespace curtain::util {

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || !std::isfinite(v)) return fallback;
  return v;
}

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const auto parsed = parse_u64(raw);
  return parsed.value_or(fallback);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : std::string(raw);
}

namespace {

/// Reads a u64 knob and clamps it into [lo, hi].
size_t env_u64_clamped(const char* name, uint64_t fallback, uint64_t lo,
                       uint64_t hi) {
  uint64_t v = env_u64(name, fallback);
  if (v < lo) v = lo;
  if (v > hi) v = hi;
  return static_cast<size_t>(v);
}

}  // namespace

double campaign_scale() {
  const double scale = env_double("CURTAIN_SCALE", 0.05);
  if (scale <= 0.0) return 0.05;
  return scale > 1.0 ? 1.0 : scale;
}

uint64_t study_seed() { return env_u64("CURTAIN_SEED", 20141105); }

int campaign_shards() {
  uint64_t shards = env_u64("CURTAIN_SHARDS", 1);
  if (shards == 0) shards = std::thread::hardware_concurrency();
  if (shards < 1) return 1;
  return shards > 64 ? 64 : static_cast<int>(shards);
}

int campaign_cohorts() {
  const uint64_t cohorts = env_u64("CURTAIN_COHORTS", 0);
  return cohorts > 64 ? 64 : static_cast<int>(cohorts);
}

size_t record_block_rows() {
  return env_u64_clamped("CURTAIN_BLOCK_ROWS", 8192, 256, 1u << 20);
}

size_t rss_ceiling_mb() {
  return env_u64_clamped("CURTAIN_RSS_CEILING_MB", 0, 0, 1u << 20);
}

std::string metrics_out() { return env_string("CURTAIN_METRICS_OUT", ""); }

std::string profile_out() { return env_string("CURTAIN_PROFILE_OUT", ""); }

std::string log_flag() { return env_string("CURTAIN_LOG", ""); }

std::string bench_csv_dir() {
  return env_string("CURTAIN_BENCH_CSV_DIR", "");
}

std::vector<FlagInfo> describe_flags() {
  // One row per knob; `value` is the post-clamp value the accessors
  // return, so the listing shows what the run actually used.
  std::vector<FlagInfo> flags;
  flags.push_back({"CURTAIN_SCALE", "double", "0.05", "(0, 1]",
                   "fraction of the paper-scale campaign to run",
                   format_double(campaign_scale(), 4)});
  flags.push_back({"CURTAIN_SEED", "u64", "20141105", "-",
                   "study-wide RNG seed", std::to_string(study_seed())});
  flags.push_back({"CURTAIN_SHARDS", "u64", "1", "[1, 64]; 0 = hw threads",
                   "worker threads in the campaign shard pool",
                   std::to_string(campaign_shards())});
  flags.push_back({"CURTAIN_COHORTS", "u64", "0", "[0, 64]",
                   "device cohorts per carrier (0 = auto-size)",
                   std::to_string(campaign_cohorts())});
  flags.push_back({"CURTAIN_BLOCK_ROWS", "u64", "8192", "[256, 1048576]",
                   "row budget of one measurement record block",
                   std::to_string(record_block_rows())});
  flags.push_back({"CURTAIN_RSS_CEILING_MB", "u64", "0 (unenforced)",
                   "[0, 1048576]",
                   "resident-set ceiling for memory-bounded runs",
                   std::to_string(rss_ceiling_mb())});
  flags.push_back({"CURTAIN_METRICS_OUT", "string", "\"\"", "-",
                   "metrics snapshot output file", metrics_out()});
  flags.push_back({"CURTAIN_PROFILE_OUT", "string", "\"\"", "-",
                   "flight-recorder chrome trace output file",
                   profile_out()});
  flags.push_back({"CURTAIN_LOG", "string", "\"\" (warn)",
                   "debug|info|warn|error|off", "log level", log_flag()});
  flags.push_back({"CURTAIN_BENCH_CSV_DIR", "string", "\"\"", "-",
                   "bench CDF -> CSV mirror directory", bench_csv_dir()});
  return flags;
}

}  // namespace curtain::util
