// Figure 12: Google Public DNS resolver consistency per client. Despite
// the single anycast VIP, clients are directed to several of Google's 30
// geographic /24 clusters over time.
#include "bench_common.h"
#include "net/time.h"

int main() {
  using namespace curtain;
  bench::banner("Figure 12", "GoogleDNS resolver/(24) consistency over time");

  const auto& dataset = bench::study().records();
  for (int c = 0; c < 6; ++c) {
    const auto timelines = analysis::resolver_timelines(
        dataset, c, measure::ResolverKind::kGoogle);
    size_t multi_prefix = 0;
    size_t max_prefixes = 0;
    double mean_ips = 0.0;
    for (const auto& timeline : timelines) {
      if (timeline.unique_slash24s() > 1) ++multi_prefix;
      max_prefixes = std::max(max_prefixes, timeline.unique_slash24s());
      mean_ips += static_cast<double>(timeline.unique_ips());
    }
    if (!timelines.empty()) mean_ips /= static_cast<double>(timelines.size());
    std::printf("%s: clients=%zu  seeing >1 Google /24: %zu  "
                "max /24s=%zu  mean IPs=%.1f\n",
                dataset.carrier_name(c).c_str(), timelines.size(),
                multi_prefix, max_prefixes, mean_ips);
  }
  std::printf("  (each /24 is one of Google's ~30 geographic sites)\n");
  return 0;
}
