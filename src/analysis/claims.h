// The paper-claim ledger: every "Paper:" line of the reproduction report
// turned into typed bands over the analysis functions that produce its
// numbers (DESIGN.md §23).
//
// A band reads one of the paper's claims, whole, as a predicate: "the
// Google tail is no longer than the local tail in every carrier", not one
// check per carrier row. Per-carrier rows are printed as detail only,
// because single rows swap under any re-draw while the claim's verdict
// should not. Thresholds come from the paper's text: a stated range is
// read as written, and an approximate value ("~50 ms", "~20%", "near
// 1 s") as within a factor of two of it.
//
// Each band is registered with one status across the two ledger seeds:
//   holds           passes at both seeds;
//   gap             fails at both: an expected failure, with its reason;
//   seed-dependent  passes at one seed only, with its reason.
// tests/claims_test.cpp runs both seeds at the report scale and fails
// when any observed status differs from its registration, so a fix
// flips a gap visibly and a regression cannot hide. The golden digests
// catch any change in results; the ledger is what says a change kept
// them right.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "measure/record_store.h"

namespace curtain::analysis {

enum class ClaimStatus { kHolds, kGap, kSeedDependent };

const char* claim_status_name(ClaimStatus status);

/// The status that one verdict per ledger seed gives.
ClaimStatus claim_status(bool first_seed_passes, bool second_seed_passes);

struct Claim {
  std::string_view id;      ///< stable key, e.g. "fig13.public_tail_shorter"
  std::string_view source;  ///< the report section, e.g. "Figure 13"
  std::string_view paper;   ///< the claim as the paper states it
  std::string_view band;    ///< the predicate it is read as
  ClaimStatus registered;
  /// Why the band fails at one or both seeds; empty for kHolds.
  std::string_view reason;
};

/// The ledger, in report order.
const std::vector<Claim>& paper_claims();

/// The seeds every band is registered against (the benchmark's two) and
/// the scale of the report in EXPERIMENTS.md.
inline constexpr std::array<uint64_t, 2> kClaimSeeds = {20141105, 20140301};
inline constexpr double kClaimScale = 0.1;

/// One band's verdict on one campaign.
struct ClaimVerdict {
  bool pass = false;
  /// The rows behind the verdict, rendered for the ledger's detail list.
  std::string detail;
};

/// Evaluates every band on one campaign's records; indexed like
/// paper_claims().
std::vector<ClaimVerdict> evaluate_claims(const measure::RecordStore& dataset);

/// One ledger seed's evaluation.
struct ClaimRun {
  uint64_t seed = 0;
  std::vector<ClaimVerdict> verdicts;
};

/// Writes the ledger section of the report: the status table (observed
/// against registered), then each band's reading, reason and detail.
void write_claim_ledger(const std::array<ClaimRun, 2>& runs, double scale,
                        std::ostream& out);

}  // namespace curtain::analysis
