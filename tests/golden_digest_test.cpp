// Golden digests: the campaign's results pinned across changes.
//
// shard_determinism_test proves the exports do not depend on how the work
// is split; it cannot notice a change that moves every split the same way.
// This test runs one fixed Scenario (paper_2014, seed 20141105, scale
// 0.02) once and compares two FNV-1a 64-bit digests against committed
// constants:
//   * all six CSV export surfaces, concatenated in a fixed order;
//   * the Prometheus rendering of the metrics registry right after the
//     run (query, cache-hit, forward and probe counters, latency
//     histograms). The RunReport is left out: its phases are wall-clock;
//   * the markdown text analysis::write_report renders from the records
//     (every table and figure, bootstrap intervals included).
//
// A change that is meant to alter results must update the constants in
// the same diff and say why in CHANGES.md. A change that is not meant to
// (a refactor, a perf change) must leave them alone.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/export.h"
#include "analysis/report.h"
#include "core/study.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace curtain {
namespace {

// All three were regenerated when the ziggurat replaced Box-Muller in
// Rng::normal (DESIGN.md §22): every latency draw changed, and with it the
// device streams' consumption and so the participation schedule. Every
// paper-claim band kept its status at both ledger seeds across that change
// (analysis/claims.h). The export digest equals the paper_repro digest
// campaignbench prints for seed 20141105. The report digest moved once more
// on its own when the headline bootstrap began drawing each resample's
// count as one binomial (DESIGN.md §19): the interval's text went from
// "81.2%-82.0%" to "81.3%-82.0%", and no other byte of the report moved.
constexpr uint64_t kGoldenDigest = 0x20583fba9492701eULL;
constexpr uint64_t kGoldenMetricsDigest = 0x4bc9438c795376c3ULL;
constexpr uint64_t kGoldenReportDigest = 0x38acf22286762147ULL;

using ExportFn = void (*)(const measure::RecordStore&, std::ostream&);
constexpr ExportFn kExports[] = {
    analysis::export_experiments_csv,
    analysis::export_resolutions_csv,
    analysis::export_probes_csv,
    analysis::export_traceroutes_csv,
    analysis::export_resolver_observations_csv,
    analysis::export_vantage_probes_csv,
};

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t fnv1a64(uint64_t digest, const std::string& bytes) {
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

std::string hex(uint64_t digest) {
  char out[17];
  std::snprintf(out, sizeof(out), "%016" PRIx64, digest);
  return out;
}

// One run per process, shared by both tests. The metrics registry is
// process-wide, so its snapshot is taken right after the run, before
// anything else can add to it.
class GoldenDigest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = std::make_unique<core::Study>(core::Scenario::paper_2014()
                                               .with_seed(20141105)
                                               .with_scale(0.02));
    study_->run();
    metrics_text_ = obs::to_prometheus_text(obs::metrics().snapshot());
  }
  static void TearDownTestSuite() { study_.reset(); }

  static std::unique_ptr<core::Study> study_;
  static std::string metrics_text_;
};

std::unique_ptr<core::Study> GoldenDigest::study_;
std::string GoldenDigest::metrics_text_;

TEST_F(GoldenDigest, PaperScenarioExportsUnchanged) {
  ASSERT_GT(study_->records().experiment_count(), 0u);
  uint64_t digest = kFnvOffset;
  for (const ExportFn fn : kExports) {
    std::ostringstream out;
    fn(study_->records(), out);
    digest = fnv1a64(digest, out.str());
  }
  EXPECT_EQ(digest, kGoldenDigest) << "export digest is " << hex(digest);
}

TEST_F(GoldenDigest, PaperScenarioMetricsUnchanged) {
  ASSERT_NE(metrics_text_.find("curtain_dns_cache_hits_total"),
            std::string::npos);
  const uint64_t digest = fnv1a64(kFnvOffset, metrics_text_);
  EXPECT_EQ(digest, kGoldenMetricsDigest) << "metrics digest is " << hex(digest);
}

TEST_F(GoldenDigest, PaperScenarioReportUnchanged) {
  analysis::ReportConfig config;
  config.scale = 0.02;
  config.seed = 20141105;
  std::ostringstream out;
  analysis::write_report(study_->records(), config, out);
  ASSERT_NE(out.str().find("Table 1"), std::string::npos);
  const uint64_t digest = fnv1a64(kFnvOffset, out.str());
  EXPECT_EQ(digest, kGoldenReportDigest) << "report digest is " << hex(digest);
}

}  // namespace
}  // namespace curtain
