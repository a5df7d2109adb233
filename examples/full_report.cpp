// Full reproduction report: runs a campaign and writes the EXPERIMENTS.md
// paper-vs-measured record to stdout, ending with the paper-claim ledger
// (analysis/claims.h), which evaluates every band at both ledger seeds.
//
//   $ CURTAIN_SCALE=0.1 ./build/examples/full_report > EXPERIMENTS.md
#include <iostream>

#include "analysis/claims.h"
#include "analysis/report.h"
#include "core/study.h"

int main() {
  using namespace curtain;
  std::array<analysis::ClaimRun, 2> ledger;
  const core::Scenario scenario = core::Scenario::from_env();
  {
    core::Study study(scenario);
    std::cerr << "running campaign (scale=" << scenario.scale << ")...\n";
    study.run();
    std::cerr << "campaign: " << study.summary() << "\n";

    analysis::ReportConfig config;
    config.scale = scenario.scale;
    config.seed = scenario.seed;
    analysis::write_report(study.records(), config, std::cout);
    for (size_t i = 0; i < ledger.size(); ++i) {
      ledger[i].seed = analysis::kClaimSeeds[i];
      if (ledger[i].seed == scenario.seed) {
        ledger[i].verdicts = analysis::evaluate_claims(study.records());
      }
    }
  }
  // The ledger seeds the report's run did not cover, at the same scale.
  for (analysis::ClaimRun& run : ledger) {
    if (!run.verdicts.empty()) continue;
    core::Scenario other = scenario;
    core::Study study(other.with_seed(run.seed));
    std::cerr << "running ledger campaign (seed=" << run.seed << ")...\n";
    study.run();
    run.verdicts = analysis::evaluate_claims(study.records());
  }
  analysis::write_claim_ledger(ledger, scenario.scale, std::cout);
  return 0;
}
