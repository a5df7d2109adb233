// campaign_bench — end-to-end and per-layer benchmark of the measurement
// campaign (see README.md in this directory for the metrics, the
// workloads and the measured noise floor).
//
//   campaign_bench --workload paper_repro|fleet_cold --seed N --seconds S
//                  --trace 0|1 [--size full|smoke] [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that yields the per-layer metrics and writes the
// benchmark's spans to DIR. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// nonzero when an output check fails.
//
// API rule: the program is driven only through core::Scenario/core::Study,
// the analysis:: entry points, cellular::study_carriers() and
// obs::metrics().snapshot(). Nothing here includes exec/, net/topology.h or
// dns/server.h, because those APIs are due to be deleted or reshaped and a
// benchmark that the measured change has to edit cannot judge that change.
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <ostream>
#include <streambuf>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/export.h"
#include "analysis/figures.h"
#include "analysis/report.h"
#include "cellular/carrier_profile.h"
#include "core/scenario.h"
#include "core/study.h"
#include "obs/metrics.h"

namespace {

using namespace curtain;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  core::Scenario scenario;
};

/// Study constructions timed for setup_s before each campaign, so the
/// samples span the whole run (the median is reported). One construction
/// takes a few milliseconds.
constexpr int kSetupBatch = 10;

/// Why these two: paper_repro is the run reproduction users make (one
/// worker, about fourteen experiments per device, so per-device caches are
/// warm and the DNS exchange path dominates); fleet_cold widens the four US
/// carriers to thousands of devices that mostly run one experiment each
/// in a few simulated hours, so caches start cold, laned per-device state
/// sets the memory and the two-worker shard pool does real work.
Workload make_workload(const std::string& name, uint64_t seed, bool smoke) {
  Workload workload;
  workload.name = name;
  if (name == "paper_repro") {
    workload.scenario = core::Scenario::paper_2014()
                            .with_seed(seed)
                            .with_scale(smoke ? 0.002 : 0.02)
                            .with_shards(1);
    return workload;
  }
  if (name == "fleet_cold") {
    const int devices_per_carrier = smoke ? 200 : 2500;
    std::vector<cellular::CarrierProfile> carriers;
    for (const cellular::CarrierProfile& profile : cellular::study_carriers()) {
      if (profile.country != "US") continue;
      cellular::CarrierProfile widened = profile;
      widened.study_clients = devices_per_carrier;
      carriers.push_back(std::move(widened));
    }
    workload.scenario = core::Scenario::paper_2014()
                            .with_seed(seed)
                            .with_scale(0.0005)
                            .with_shards(2)
                            .with_carriers(std::move(carriers));
    return workload;
  }
  workload.name.clear();
  return workload;
}

// --- output streams ---------------------------------------------------------

/// A streambuf that keeps nothing: it counts the bytes written and, when
/// asked, folds them into an FNV-1a 64-bit digest.
class SinkBuf final : public std::streambuf {
 public:
  explicit SinkBuf(bool hash) : hash_(hash) {
    setp(buffer_, buffer_ + sizeof(buffer_));
  }
  uint64_t bytes() const { return bytes_ + static_cast<uint64_t>(pptr() - pbase()); }
  uint64_t digest() {
    drain();
    return digest_;
  }

 protected:
  int_type overflow(int_type ch) override {
    drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    const char* end = pptr();
    if (hash_) {
      for (const char* p = pbase(); p != end; ++p) {
        digest_ ^= static_cast<unsigned char>(*p);
        digest_ *= 0x100000001b3ULL;
      }
    }
    bytes_ += static_cast<uint64_t>(end - pbase());
    setp(buffer_, buffer_ + sizeof(buffer_));
  }

  bool hash_;
  uint64_t bytes_ = 0;
  uint64_t digest_ = 0xcbf29ce484222325ULL;
  char buffer_[1 << 16];
};

using ExportFn = void (*)(const measure::RecordStore&, std::ostream&);
struct ExportSurface {
  const char* name;
  ExportFn fn;
};
constexpr ExportSurface kExports[] = {
    {"experiments", analysis::export_experiments_csv},
    {"resolutions", analysis::export_resolutions_csv},
    {"probes", analysis::export_probes_csv},
    {"traceroutes", analysis::export_traceroutes_csv},
    {"resolver_observations", analysis::export_resolver_observations_csv},
    {"vantage_probes", analysis::export_vantage_probes_csv},
};

/// FNV-64 of the six CSV export surfaces, in order (untimed output check).
uint64_t export_digest(const measure::RecordStore& records) {
  SinkBuf buf(/*hash=*/true);
  std::ostream out(&buf);
  for (const ExportSurface& surface : kExports) surface.fn(records, out);
  out.flush();
  return buf.digest();
}

// --- spans ------------------------------------------------------------------

/// The benchmark's own spans (name, start, end, parent), kept in memory
/// and written out when the run ends.
class SpanLog {
 public:
  int begin(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), now_ms(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) { spans_[static_cast<size_t>(span)].end_ms = now_ms(); }
  void add(std::string name, double start_ms, double end_ms, int parent) {
    spans_.push_back(Span{std::move(name), start_ms, end_ms, parent});
  }
  double start_of(int span) const { return spans_[static_cast<size_t>(span)].start_ms; }
  double duration(int span) const {
    const Span& s = spans_[static_cast<size_t>(span)];
    return s.end_ms - s.start_ms;
  }
  double now_ms() const { return ms_between(epoch_, Clock::now()); }

  /// Duration minus the part of the span's interval its children cover.
  double self_ms(int span) const {
    const Span& s = spans_[static_cast<size_t>(span)];
    std::vector<std::pair<double, double>> covered;
    for (const Span& child : spans_) {
      if (child.parent != span) continue;
      const double lo = std::max(child.start_ms, s.start_ms);
      const double hi = std::min(child.end_ms, s.end_ms);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0.0, reach = s.start_ms;
    for (const auto& [lo, hi] : covered) {
      if (hi <= reach) continue;
      busy += hi - std::max(lo, reach);
      reach = hi;
    }
    return (s.end_ms - s.start_ms) - busy;
  }

  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.3f, "
                    "\"end_ms\": %.3f, \"parent\": %d, \"self_ms\": %.3f}%s\n",
                    i, s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                    self_ms(static_cast<int>(i)),
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start_ms;
    double end_ms;
    int parent;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// --- analysis pass ----------------------------------------------------------

struct AnalysisTimes {
  double report_ms = 0.0;
  double export_ms = 0.0;
  uint64_t export_bytes = 0;
};

/// write_report plus the six CSV exports, all into discarding streams.
/// Records a span per call when `spans` is given.
AnalysisTimes analysis_pass(const core::Study& study, SpanLog* spans,
                            int parent) {
  AnalysisTimes times;
  analysis::ReportConfig config;
  config.scale = study.scenario().scale;
  config.seed = study.scenario().seed;
  {
    SinkBuf buf(/*hash=*/false);
    std::ostream out(&buf);
    const int span = spans ? spans->begin("analysis.write_report", parent) : -1;
    const auto start = Clock::now();
    analysis::write_report(study.records(), config, out);
    out.flush();
    times.report_ms = ms_between(start, Clock::now());
    if (spans) spans->end(span);
  }
  SinkBuf buf(/*hash=*/false);
  std::ostream out(&buf);
  for (const ExportSurface& surface : kExports) {
    const int span = spans ? spans->begin(std::string("analysis.export_") +
                                              surface.name, parent)
                           : -1;
    const auto start = Clock::now();
    surface.fn(study.records(), out);
    out.flush();
    times.export_ms += ms_between(start, Clock::now());
    if (spans) spans->end(span);
  }
  times.export_bytes = buf.bytes();
  return times;
}

/// Every figure generator once (traced run only); returns total ms.
double figures_pass(const measure::RecordStore& d, SpanLog& spans, int parent) {
  const std::vector<std::pair<const char*, std::function<void()>>> figures = {
      {"fig2_replica_penalty", [&] { analysis::fig2_replica_penalty(d); }},
      {"fig3_radio_bands", [&] { analysis::fig3_radio_bands(d); }},
      {"fig4_resolver_distance", [&] { analysis::fig4_resolver_distance(d); }},
      {"fig5_resolution_times", [&] { analysis::fig5_fig6_resolution_times(d, "US"); }},
      {"fig6_resolution_times", [&] { analysis::fig5_fig6_resolution_times(d, "KR"); }},
      {"fig7_cache_effect", [&] { analysis::fig7_cache_effect(d); }},
      // Domain 5, the one the generated report plots for Fig. 10.
      {"fig10_cosine", [&] { analysis::fig10_cosine(d, 5); }},
      {"fig11_public_distance", [&] { analysis::fig11_public_distance(d); }},
      {"fig13_public_resolution", [&] { analysis::fig13_public_resolution(d); }},
      {"fig14_public_replica_delta", [&] { analysis::fig14_public_replica_delta(d); }},
      {"headline_public_equal_or_better", [&] { analysis::headline_public_equal_or_better(d); }},
  };
  double total_ms = 0.0;
  for (const auto& [name, run] : figures) {
    const int span = spans.begin(std::string("analysis.") + name, parent);
    run();
    spans.end(span);
    total_ms += spans.duration(span);
  }
  return total_ms;
}

// --- host contention probe --------------------------------------------------

/// A fixed branchy kernel (sort + hash map) timed before and after each
/// run, so a slow host can be told apart from a slow program. Its input is
/// fixed: no change to the simulator can move this number. Its working set
/// (tens of MB) outgrows the per-core caches like the campaign's does, so
/// it slows down with the same memory contention from other tenants.
double ref_kernel_ms() {
  constexpr size_t kValues = 1000000;
  constexpr uint64_t kKeys = 500009;
  // A private mapping, unmapped on return: freed heap would otherwise stay
  // resident and raise the campaign's peak_rss_mb.
  constexpr size_t kArenaBytes = size_t{128} << 20;
  void* arena = mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (arena == MAP_FAILED) {
    std::perror("campaign_bench: mmap");
    std::exit(2);
  }
  double ms = 0.0;
  {
    std::pmr::monotonic_buffer_resource pool(arena, kArenaBytes,
                                             std::pmr::null_memory_resource());
    std::pmr::vector<uint64_t> values(kValues, &pool);
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (uint64_t& v : values) {  // splitmix64
      state += 0x9e3779b97f4a7c15ULL;
      uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      v = z ^ (z >> 31);
    }
    const auto start = Clock::now();
    std::sort(values.begin(), values.end());
    std::pmr::unordered_map<uint64_t, uint32_t> buckets(&pool);
    for (const uint64_t v : values) ++buckets[v % kKeys];
    uint64_t checksum = 0;
    for (const uint64_t v : values) checksum += buckets[(v >> 7) % kKeys];
    ms = ms_between(start, Clock::now());
    if (checksum == 0) std::fprintf(stderr, "ref kernel checksum 0\n");
  }
  munmap(arena, kArenaBytes);
  return ms;
}

std::vector<double> ref_kernel_samples(int count) {
  std::vector<double> samples;
  for (int i = 0; i < count; ++i) samples.push_back(ref_kernel_ms());
  return samples;
}

// --- metrics ----------------------------------------------------------------

using Counters = std::map<std::string, uint64_t>;

Counters counters_now() {
  Counters counters;
  for (const auto& row : obs::metrics().snapshot().counters) {
    counters[row.name] = row.value;
  }
  return counters;
}

Counters counter_delta(const Counters& before, const Counters& after) {
  Counters delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

/// One output line: name → (value, unit), in insertion order.
class MetricLine {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Output checks shared by both modes; reports every failure on stderr.
struct Checks {
  bool ok = true;
  void require(bool condition, const std::string& what) {
    if (condition) return;
    ok = false;
    std::fprintf(stderr, "campaign_bench: check failed: %s\n", what.c_str());
  }
};

/// A gauge's current value. A gauge missing from the snapshot fails the
/// run: printed as 0 it would hide a renamed or removed gauge.
double gauge_now(Checks& checks, const std::string& name) {
  for (const auto& row : obs::metrics().snapshot().gauges) {
    if (row.name == name) return row.value;
  }
  checks.require(false, "gauge " + name + " missing from the metrics snapshot");
  return 0.0;
}

struct RunOutcome {
  size_t experiments = 0;
  size_t resolutions = 0;
  size_t failed = 0;    ///< resolutions with responded == false
  uint64_t digest = 0;  ///< export digest; 0 when not computed
};

RunOutcome outcome_of(const core::Study& study, bool with_digest) {
  RunOutcome outcome;
  outcome.experiments = study.records().experiment_count();
  outcome.resolutions = study.records().resolution_count();
  for (const auto& row : study.records().resolutions()) {
    if (!row.responded) ++outcome.failed;
  }
  if (with_digest) outcome.digest = export_digest(study.records());
  return outcome;
}

/// A campaign must produce records, and every run of one seed the same.
void check_outcome(Checks& checks, const RunOutcome& outcome,
                   const RunOutcome& first) {
  checks.require(outcome.experiments > 0, "campaign ran no experiments");
  checks.require(outcome.resolutions > 0, "campaign made no resolutions");
  checks.require(outcome.experiments == first.experiments &&
                     outcome.resolutions == first.resolutions &&
                     outcome.failed == first.failed,
                 "record totals differ between runs of one seed");
  if (outcome.digest != 0 && first.digest != 0) {
    checks.require(outcome.digest == first.digest,
                   "export digest differs between runs of one seed");
  }
}

void print_result(const Checks& checks, size_t attempted, size_t failed,
                  const MetricLine& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              checks.ok ? "true" : "false", attempted, failed,
              metrics.json().c_str());
  std::fflush(stdout);
}

// --- the two modes ----------------------------------------------------------

/// Tracing off: setup_s, experiments_per_s, analysis_s, peak_rss_mb.
int run_untraced(const Workload& workload, double seconds) {
  Checks checks;
  const std::vector<double> ref_before = ref_kernel_samples(3);

  std::vector<double> setup_s;
  const auto time_setup = [&] {
    for (int i = 0; i < kSetupBatch; ++i) {
      const auto start = Clock::now();
      core::Study study(workload.scenario);
      setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    }
  };

  // Each round times a batch of constructions, one campaign and
  // kAnalysisPasses analysis passes over its records, so every metric
  // samples the whole run rather than one part of it (the host's speed
  // drifts over tens of seconds). Rounds repeat while the next one fits in
  // `seconds` (at least 3); one study is alive at a time. Throughput is
  // all campaigns' experiments over all their run() time: under that
  // drift, the pooled ratio repeats better than a median of rounds.
  constexpr int kAnalysisPasses = 2;
  int campaigns = 0;
  size_t experiments = 0;
  double campaign_s = 0.0;
  std::vector<double> analysis_s;
  RunOutcome first;
  size_t attempted = 0;
  size_t failed = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::unique_ptr<core::Study> study;
  // The peak resident set after the first round: set-up, one campaign and
  // its analysis, the process a user runs. Later rounds would raise it
  // with memory the allocator kept from earlier ones, by more the more
  // rounds a fast host fits in.
  double peak_mb = 0.0;
  Clock::duration round_length{};
  for (int round = 0;
       round < 3 || Clock::now() + round_length < deadline; ++round) {
    const auto round_start = Clock::now();
    study.reset();
    time_setup();
    study = std::make_unique<core::Study>(workload.scenario);
    const auto run_start = Clock::now();
    study->run();
    const double run_s = ms_between(run_start, Clock::now()) / 1e3;

    const RunOutcome outcome = outcome_of(*study, /*with_digest=*/round == 0);
    if (round == 0) first = outcome;
    check_outcome(checks, outcome, first);
    attempted += outcome.resolutions;
    failed += outcome.failed;
    ++campaigns;
    experiments += outcome.experiments;
    campaign_s += run_s;
    std::fprintf(stderr, "round %d: campaign %.3f s (%.1f experiments/s)",
                 round, run_s, static_cast<double>(outcome.experiments) / run_s);
    for (int pass = 0; pass < kAnalysisPasses; ++pass) {
      const AnalysisTimes times = analysis_pass(*study, nullptr, -1);
      analysis_s.push_back((times.report_ms + times.export_ms) / 1e3);
      std::fprintf(stderr, ", analysis %.3f s", analysis_s.back());
    }
    if (round == 0) peak_mb = peak_rss_mb();
    std::fprintf(stderr, ", peak RSS %.1f MB\n", peak_rss_mb());
    round_length = std::max(round_length, Clock::now() - round_start);
  }
  check_outcome(checks, outcome_of(*study, /*with_digest=*/true), first);
  study.reset();
  const std::vector<double> ref_after = ref_kernel_samples(3);

  std::printf("workload=%s seed=%llu campaigns=%d analyses=%zu "
              "experiments=%zu resolutions=%zu digest=%016llx\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(workload.scenario.seed),
              campaigns, analysis_s.size(), first.experiments,
              first.resolutions,
              static_cast<unsigned long long>(first.digest));
  std::printf("host.ref_kernel_ms before=%.3f after=%.3f\n", median(ref_before),
              median(ref_after));

  MetricLine metrics;
  metrics.add("setup_s", median(setup_s), "s");
  metrics.add("experiments_per_s", static_cast<double>(experiments) / campaign_s,
              "1/s");
  metrics.add("analysis_s", median(analysis_s), "s");
  metrics.add("peak_rss_mb", peak_mb, "MB");
  print_result(checks, attempted, failed, metrics);
  return checks.ok ? 0 : 1;
}

/// One traced repetition's per-layer readings.
struct TracedSample {
  double world_build_ms = 0.0;
  double engine_build_ms = 0.0;
  double untraced_run_ms = 0.0;
  double traced_run_ms = 0.0;
  double cpu_ms_per_experiment = 0.0;
  double worker_utilization_pct = 0.0;
  double queue_wait_p95_ms = 0.0;
  double shard_wall_max_over_median = 0.0;
  double vantage_sweep_ms = 0.0;
  double run_self_ms = 0.0;
  double lane_cache_mb = 0.0;
  double lane_state_mb = 0.0;
  double records_mb = 0.0;
  AnalysisTimes analysis;
  double figures_ms = 0.0;
};

double phase_ms(Checks& checks, const obs::RunReport& report,
                const std::string& name) {
  for (const auto& phase : report.phases) {
    if (phase.name == name) return phase.wall_ms;
  }
  checks.require(false, "phase " + name + " missing from Study::report()");
  return 0.0;
}

/// Tracing on: per-layer counts (exact deltas of the metrics registry
/// around Study::run) and times from a flight-recorded run, each
/// repetition paired with an untraced run of the same scenario.
int run_traced(const Workload& workload, double seconds,
               const std::string& out_dir) {
  Checks checks;
  SpanLog spans;
  const std::vector<double> ref_before = ref_kernel_samples(3);

  core::Scenario traced_scenario = workload.scenario;
  traced_scenario.with_profile_out(out_dir + "/" + workload.name +
                                   "-chrome-trace.json");

  std::vector<TracedSample> samples;
  RunOutcome first;
  Counters counts;
  size_t attempted = 0;
  size_t failed = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  Clock::duration rep_length{};
  for (int rep = 0; rep < 1 || Clock::now() + rep_length < deadline; ++rep) {
    const auto rep_start = Clock::now();
    TracedSample sample;
    {
      core::Study study(workload.scenario);
      const Counters before = counters_now();
      const auto start = Clock::now();
      study.run();
      sample.untraced_run_ms = ms_between(start, Clock::now());
      const Counters delta = counter_delta(before, counters_now());
      const RunOutcome outcome = outcome_of(study, /*with_digest=*/true);
      if (rep == 0) {
        first = outcome;
        counts = delta;
      }
      check_outcome(checks, outcome, first);
      checks.require(delta == counts,
                     "per-layer counts differ between runs of one seed");
      attempted += outcome.resolutions;
      failed += outcome.failed;
    }

    const int rep_span = spans.begin("rep" + std::to_string(rep), -1);
    const int build_span = spans.begin("core.Study()", rep_span);
    core::Study study(traced_scenario);
    spans.end(build_span);
    sample.world_build_ms = phase_ms(checks, study.report(), "world_build");
    sample.engine_build_ms = spans.duration(build_span) - sample.world_build_ms;

    const Counters before = counters_now();
    const double cpu_before = cpu_ms();
    const int run_span = spans.begin("core.Study::run", rep_span);
    study.run();
    spans.end(run_span);
    sample.traced_run_ms = spans.duration(run_span);
    const Counters delta = counter_delta(before, counters_now());
    const RunOutcome outcome = outcome_of(study, /*with_digest=*/true);
    checks.require(outcome.digest == first.digest,
                   "traced run's export digest differs from the untraced run");
    checks.require(delta == counts,
                   "per-layer counts differ between traced and untraced runs");
    sample.cpu_ms_per_experiment =
        (cpu_ms() - cpu_before) / static_cast<double>(outcome.experiments);

    // Per-shard spans from the flight recorder, as children of run():
    // each shard starts when its worker picked it off the queue.
    std::vector<double> shard_walls;
    for (const auto& shard : study.shard_stats()) {
      const double start_ms = spans.start_of(run_span) + shard.queue_wait_ms;
      spans.add("exec.shard " + shard.label + " worker" +
                    std::to_string(shard.worker),
                start_ms, start_ms + shard.busy_ms, run_span);
      shard_walls.push_back(shard.busy_ms);
    }
    const double median_wall = median(shard_walls);
    sample.shard_wall_max_over_median =
        median_wall > 0.0
            ? *std::max_element(shard_walls.begin(), shard_walls.end()) /
                  median_wall
            : 0.0;
    sample.run_self_ms = spans.self_ms(run_span);
    const obs::RunReport& report = study.report();
    sample.worker_utilization_pct = report.profile.worker_utilization_pct;
    sample.queue_wait_p95_ms = report.profile.queue_wait_p95_ms;
    sample.vantage_sweep_ms = phase_ms(checks, report, "vantage_sweep");
    sample.lane_cache_mb = gauge_now(checks, "curtain_mem_dns_cache_bytes") / (1 << 20);
    sample.lane_state_mb = gauge_now(checks, "curtain_mem_lane_state_bytes") / (1 << 20);
    sample.records_mb = gauge_now(checks, "curtain_mem_records_bytes") / (1 << 20);
    checks.require(report.profile.enabled, "flight recorder did not run");

    sample.analysis = analysis_pass(study, &spans, rep_span);
    sample.figures_ms = figures_pass(study.records(), spans, rep_span);
    spans.end(rep_span);
    samples.push_back(sample);
    rep_length = std::max(rep_length, Clock::now() - rep_start);
  }
  const std::vector<double> ref_after = ref_kernel_samples(3);

  const std::string spans_path =
      out_dir + "/" + workload.name + "-spans.json";
  checks.require(spans.write_json(spans_path), "cannot write " + spans_path);

  const auto med = [&](double TracedSample::*field) {
    std::vector<double> values;
    for (const TracedSample& s : samples) values.push_back(s.*field);
    return median(values);
  };
  const auto med_analysis = [&](auto field) {
    std::vector<double> values;
    for (const TracedSample& s : samples) values.push_back(field(s.analysis));
    return median(values);
  };
  const double experiments = static_cast<double>(first.experiments);
  // A counter missing from the snapshot fails the run: printed as 0 it
  // would pass every equality check while hiding a renamed counter. The
  // registry merges only counters that moved, so the three that may stay
  // at zero here (SERVFAILs, upstream timeouts, capacity evictions) are
  // read with count_or_zero instead.
  const auto count = [&](const std::string& name) {
    const auto it = counts.find(name);
    checks.require(it != counts.end(),
                   "counter " + name + " missing from the metrics snapshot");
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto count_or_zero = [&](const std::string& name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto per_exp = [&](const std::string& name) {
    return count(name) / experiments;
  };
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  std::vector<double> ref_all = ref_before;
  ref_all.insert(ref_all.end(), ref_after.begin(), ref_after.end());
  std::vector<double> overhead;
  for (const TracedSample& s : samples) {
    overhead.push_back(100.0 * (s.traced_run_ms / s.untraced_run_ms - 1.0));
  }

  std::printf("workload=%s seed=%llu reps=%zu experiments=%zu resolutions=%zu "
              "digest=%016llx spans=%s\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(workload.scenario.seed),
              samples.size(), first.experiments, first.resolutions,
              static_cast<unsigned long long>(first.digest),
              spans_path.c_str());
  std::printf("host.ref_kernel_ms before=%.3f after=%.3f\n", median(ref_before),
              median(ref_after));

  MetricLine m;
  m.add("core.world_build_ms", med(&TracedSample::world_build_ms), "ms");
  m.add("core.run_self_ms", med(&TracedSample::run_self_ms), "ms");
  m.add("exec.engine_build_ms", med(&TracedSample::engine_build_ms), "ms");
  m.add("exec.cpu_ms_per_experiment", med(&TracedSample::cpu_ms_per_experiment), "ms");
  m.add("exec.worker_utilization_pct", med(&TracedSample::worker_utilization_pct), "%");
  m.add("exec.queue_wait_p95_ms", med(&TracedSample::queue_wait_p95_ms), "ms");
  m.add("exec.shard_wall_max_over_median", med(&TracedSample::shard_wall_max_over_median), "ratio");
  m.add("cellular.wakeups_per_exp", per_exp("curtain_fleet_wakeups_total"), "count/exp");
  m.add("cellular.client_cache_hit_ratio",
        ratio(count("curtain_cell_client_cache_hits_total"),
              count("curtain_cell_client_queries_total")),
        "ratio");
  m.add("cellular.lane_cache_mb", med(&TracedSample::lane_cache_mb), "MB");
  m.add("cellular.lane_state_mb", med(&TracedSample::lane_state_mb), "MB");
  m.add("dns.queries_per_exp", per_exp("curtain_dns_queries_total"), "count/exp");
  m.add("dns.cache_hit_ratio",
        ratio(count("curtain_dns_cache_hits_total"),
              count("curtain_dns_cache_hits_total") +
                  count("curtain_dns_cache_misses_total")),
        "ratio");
  m.add("dns.upstream_queries_per_exp", per_exp("curtain_dns_upstream_queries_total"), "count/exp");
  m.add("dns.authoritative_queries_per_exp",
        per_exp("curtain_dns_authoritative_queries_total"), "count/exp");
  m.add("dns.cache_evictions_per_exp",
        (count_or_zero("curtain_dns_cache_capacity_evictions_total") +
         count("curtain_dns_cache_expired_evictions_total")) / experiments,
        "count/exp");
  m.add("dns.failures",
        count_or_zero("curtain_dns_servfail_total") +
            count_or_zero("curtain_dns_upstream_timeouts_total"),
        "count");
  m.add("cdn.mapping_lookups_per_exp", per_exp("curtain_cdn_mapping_lookups_total"), "count/exp");
  m.add("net.pings_per_exp", per_exp("curtain_net_pings_total"), "count/exp");
  m.add("net.probes_firewalled_per_exp", per_exp("curtain_net_probes_firewalled_total"), "count/exp");
  m.add("measure.resolutions_per_exp", per_exp("curtain_measure_resolutions_total"), "count/exp");
  m.add("measure.probes_per_exp", per_exp("curtain_measure_probes_total"), "count/exp");
  m.add("measure.traceroutes_per_exp", per_exp("curtain_measure_traceroutes_total"), "count/exp");
  m.add("measure.records_mb", med(&TracedSample::records_mb), "MB");
  m.add("measure.vantage_sweep_ms", med(&TracedSample::vantage_sweep_ms), "ms");
  m.add("analysis.report_ms", med_analysis([](const AnalysisTimes& t) { return t.report_ms; }), "ms");
  m.add("analysis.export_ms", med_analysis([](const AnalysisTimes& t) { return t.export_ms; }), "ms");
  m.add("analysis.export_mb",
        med_analysis([](const AnalysisTimes& t) {
          return static_cast<double>(t.export_bytes) / (1 << 20);
        }),
        "MB");
  m.add("analysis.figures_ms", med(&TracedSample::figures_ms), "ms");
  m.add("obs.traced_overhead_pct", median(overhead), "%");
  m.add("host.ref_kernel_ms", median(ref_all), "ms");
  print_result(checks, attempted, failed, m);
  return checks.ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: campaign_bench --workload paper_repro|fleet_cold "
               "--seed N --seconds S --trace 0|1 [--size full|smoke] "
               "[--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 20141105;
  double seconds = 50.0;
  int trace = 0;
  std::string size = "full";
  std::string out_dir = ".";
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || seconds <= 0.0) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") return usage();
      size = value;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return usage();
    }
  }
  const Workload workload = make_workload(workload_name, seed, size == "smoke");
  if (workload.name.empty()) return usage();
  return trace == 1 ? run_traced(workload, seconds, out_dir)
                    : run_untraced(workload, seconds);
}
