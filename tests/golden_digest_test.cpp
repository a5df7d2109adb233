// Golden export digest: the campaign's results pinned across changes.
//
// shard_determinism_test proves the exports do not depend on how the work
// is split; it cannot notice a change that moves every split the same way.
// This test runs one fixed Scenario (paper_2014, seed 20141105, scale
// 0.02) and compares an FNV-1a 64-bit digest of all six CSV export
// surfaces, concatenated in a fixed order, against a committed constant.
//
// A change that is meant to alter results must update kGoldenDigest in
// the same diff and say why in CHANGES.md. A change that is not meant to
// (a refactor, a perf change) must leave it alone.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>

#include "analysis/export.h"
#include "core/study.h"

namespace curtain {
namespace {

// Generated from the code before the typed DNS exchange landed; that change
// left it untouched. It equals the paper_repro digest campaignbench prints
// for seed 20141105.
constexpr uint64_t kGoldenDigest = 0xce4b2ded5d84e034ULL;

using ExportFn = void (*)(const measure::RecordStore&, std::ostream&);
constexpr ExportFn kExports[] = {
    analysis::export_experiments_csv,
    analysis::export_resolutions_csv,
    analysis::export_probes_csv,
    analysis::export_traceroutes_csv,
    analysis::export_resolver_observations_csv,
    analysis::export_vantage_probes_csv,
};

uint64_t fnv1a64(uint64_t digest, const std::string& bytes) {
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

TEST(GoldenDigest, PaperScenarioExportsUnchanged) {
  core::Study study(core::Scenario::paper_2014()
                        .with_seed(20141105)
                        .with_scale(0.02));
  study.run();
  ASSERT_GT(study.records().experiment_count(), 0u);

  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const ExportFn fn : kExports) {
    std::ostringstream out;
    fn(study.records(), out);
    digest = fnv1a64(digest, out.str());
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  EXPECT_EQ(digest, kGoldenDigest) << "export digest is " << hex;
}

}  // namespace
}  // namespace curtain
