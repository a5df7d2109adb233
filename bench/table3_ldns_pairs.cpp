// Table 3: LDNS pairs — client-facing and external-facing resolver counts
// and the consistency of their pairings, per carrier. In the paper,
// Verizon is the only carrier at 100%.
#include "bench_common.h"

int main() {
  using namespace curtain;
  bench::banner("Table 3", "LDNS pairs seen by the fleet, with consistency");

  const auto& dataset = bench::study().records();
  const auto stats = analysis::ldns_pair_stats(dataset);
  std::printf("  %-12s %-8s %-9s %-7s %s\n", "Provider", "Client", "External",
              "Pairs", "Consistency %");
  for (const auto& row : stats) {
    std::printf("  %-12s %-8zu %-9zu %-7zu %.1f\n",
                dataset.carrier_name(row.carrier_index).c_str(),
                row.client_resolvers, row.external_resolvers, row.pairs,
                row.consistency_percent);
  }
  std::printf("  (paper: every carrier indirect; Verizon alone at 100%%)\n");
  return 0;
}
