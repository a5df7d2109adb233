// The paper-claim ledger (analysis/claims.h): every band's observed status
// across the two ledger seeds must equal its registration, so a fix flips
// a gap visibly and a regression cannot hide behind one lucky seed.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "analysis/claims.h"
#include "core/study.h"

namespace curtain::analysis {
namespace {

TEST(Claims, StatusFromTwoSeeds) {
  EXPECT_EQ(claim_status(true, true), ClaimStatus::kHolds);
  EXPECT_EQ(claim_status(false, false), ClaimStatus::kGap);
  EXPECT_EQ(claim_status(true, false), ClaimStatus::kSeedDependent);
  EXPECT_EQ(claim_status(false, true), ClaimStatus::kSeedDependent);
}

TEST(Claims, RegistryIsWellFormed) {
  std::set<std::string_view> ids;
  for (const Claim& claim : paper_claims()) {
    EXPECT_TRUE(ids.insert(claim.id).second) << "duplicate id " << claim.id;
    EXPECT_FALSE(claim.source.empty()) << claim.id;
    EXPECT_FALSE(claim.paper.empty()) << claim.id;
    EXPECT_FALSE(claim.band.empty()) << claim.id;
    // An expected failure always says why; a band that holds needs no
    // excuse.
    EXPECT_EQ(claim.reason.empty(), claim.registered == ClaimStatus::kHolds)
        << claim.id;
  }
  EXPECT_GE(ids.size(), 14u);  // at least one band per "Paper:" line
}

TEST(Claims, LedgerListsEveryBandAndFlagsMismatches) {
  const auto& claims = paper_claims();
  std::array<ClaimRun, 2> runs;
  for (size_t s = 0; s < runs.size(); ++s) {
    runs[s].seed = kClaimSeeds[s];
    for (const Claim& claim : claims) {
      // Verdicts that reproduce each registration exactly.
      const bool first = claim.registered == ClaimStatus::kHolds ||
                         claim.registered == ClaimStatus::kSeedDependent;
      const bool second = claim.registered == ClaimStatus::kHolds;
      runs[s].verdicts.push_back({s == 0 ? first : second, "detail"});
    }
  }
  std::ostringstream matching;
  write_claim_ledger(runs, kClaimScale, matching);
  for (const Claim& claim : claims) {
    std::string quoted = "`";
    quoted += claim.id;
    quoted += '`';
    EXPECT_NE(matching.str().find(quoted), std::string::npos) << claim.id;
  }
  EXPECT_NE(matching.str().find(std::to_string(claims.size()) + " of " +
                                std::to_string(claims.size()) + " bands match"),
            std::string::npos);
  EXPECT_EQ(matching.str().find("(differs)"), std::string::npos);

  runs[0].verdicts[0].pass = !runs[0].verdicts[0].pass;
  std::ostringstream flipped;
  write_claim_ledger(runs, kClaimScale, flipped);
  EXPECT_NE(flipped.str().find("(differs)"), std::string::npos);
}

// The ledger itself: both benchmark seeds at the report's scale, on four
// workers (results do not depend on the worker count).
TEST(Claims, EveryBandMatchesItsRegistration) {
  std::array<ClaimRun, 2> runs;
  for (size_t s = 0; s < runs.size(); ++s) {
    core::Study study(core::Scenario::paper_2014()
                          .with_seed(kClaimSeeds[s])
                          .with_scale(kClaimScale)
                          .with_shards(4));
    study.run();
    runs[s].seed = kClaimSeeds[s];
    runs[s].verdicts = evaluate_claims(study.records());
  }
  const auto& claims = paper_claims();
  ASSERT_EQ(runs[0].verdicts.size(), claims.size());
  ASSERT_EQ(runs[1].verdicts.size(), claims.size());
  for (size_t i = 0; i < claims.size(); ++i) {
    const ClaimStatus observed =
        claim_status(runs[0].verdicts[i].pass, runs[1].verdicts[i].pass);
    EXPECT_EQ(claim_status_name(observed),
              std::string(claim_status_name(claims[i].registered)))
        << claims[i].id << "\n  " << runs[0].seed << ": "
        << runs[0].verdicts[i].detail << "\n  " << runs[1].seed << ": "
        << runs[1].verdicts[i].detail;
  }
}

}  // namespace
}  // namespace curtain::analysis
