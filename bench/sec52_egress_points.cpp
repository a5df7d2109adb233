// Section 5.2: network egress points per carrier, extracted from client
// traceroutes (last in-carrier hop before the first outside hop). The
// paper reports 110 (AT&T), 45 (Sprint), 62 (Verizon) and 49 (T-Mobile) —
// a 2-10x increase over the 4-6 of Xu et al.'s 3G-era study.
#include "bench_common.h"

int main() {
  using namespace curtain;
  bench::banner("Sec 5.2", "Egress points discovered from client traceroutes");

  const auto& dataset = bench::study().records();
  const auto stats = analysis::egress_points(dataset);
  std::printf("  %-12s %-12s %s\n", "Carrier", "Discovered", "Provisioned");
  for (const auto& row : stats) {
    const auto& profile =
        dataset.carriers()[static_cast<size_t>(row.carrier_index)];
    std::printf("  %-12s %-12zu %d\n", profile.name.c_str(), row.egress_points,
                profile.egress_points);
  }
  std::printf("  (longer campaigns discover more of the provisioned set;\n"
              "   run with CURTAIN_SCALE=1 for full five-month coverage)\n");
  return 0;
}
