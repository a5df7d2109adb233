// Figure 9: resolver associations for clients at a *static* location
// (observations within 10 km of the modal location). Even stationary
// clients shift resolvers across IPs and /24s.
#include "bench_common.h"

int main() {
  using namespace curtain;
  bench::banner("Figure 9", "Resolver churn for stationary clients (10 km filter)");

  const auto& dataset = bench::study().records();
  for (int c = 0; c < 6; ++c) {
    const auto timelines = analysis::static_resolver_timelines(
        dataset, c, measure::ResolverKind::kLocal, 10.0);
    size_t churning = 0;
    size_t max_ips = 0;
    size_t max_prefixes = 0;
    for (const auto& timeline : timelines) {
      if (timeline.unique_ips() > 1) ++churning;
      max_ips = std::max(max_ips, timeline.unique_ips());
      max_prefixes = std::max(max_prefixes, timeline.unique_slash24s());
    }
    std::printf("%s: static clients=%zu  with resolver churn=%zu  "
                "max IPs=%zu  max /24s=%zu\n",
                dataset.carrier_name(c).c_str(), timelines.size(), churning,
                max_ips, max_prefixes);
  }
  std::printf("  (paper: clients shift resolvers across IPs and /24 prefixes"
              " even when not moving)\n");
  return 0;
}
