// Table 4: external reachability of observed cellular DNS resolvers from
// a wired university vantage point. Paper: only Verizon and AT&T answer a
// majority of pings (plus a sliver of T-Mobile); nobody completes a
// traceroute.
#include "bench_common.h"

int main() {
  using namespace curtain;
  bench::banner("Table 4", "External resolvers reachable from the vantage point");

  const auto& dataset = bench::study().records();
  const auto table = analysis::external_reachability(dataset);
  std::printf("  %-12s %-7s %-6s %s\n", "Provider", "Total", "Ping",
              "Traceroute");
  for (const auto& row : table) {
    std::printf("  %-12s %-7zu %-6zu %zu\n",
                dataset.carrier_name(row.carrier_index).c_str(), row.total,
                row.ping_responded, row.traceroute_reached);
  }
  return 0;
}
