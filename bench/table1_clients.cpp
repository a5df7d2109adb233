// Table 1: distribution of measurement clients across the six carriers.
#include "analysis/census.h"
#include "bench_common.h"

int main() {
  using namespace curtain;
  bench::banner("Table 1", "Distribution of measurement clients per operator");

  std::printf("  %-12s %-8s %-8s %s\n", "Carrier", "#Clients", "Country",
              "(measured devices with >=1 experiment)");
  const auto& dataset = bench::study().records();
  const auto& carriers = dataset.carriers();
  const std::vector<size_t> active =
      analysis::active_devices_per_carrier(dataset);
  int total = 0;
  for (size_t c = 0; c < carriers.size(); ++c) {
    const auto& profile = carriers[c];
    std::printf("  %-12s %-8d %-8s active=%zu\n", profile.name.c_str(),
                profile.study_clients, profile.country.c_str(),
                active[c]);
    total += profile.study_clients;
  }
  std::printf("  %-12s %-8d  (paper: 158)\n", "TOTAL", total);
  return 0;
}
