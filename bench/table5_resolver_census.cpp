// Table 5: distinct resolver addresses (and /24s) observed through our
// ADNS for each provider and resolver group. Paper: public services show
// ~4x more addresses but comparable /24 counts (Google's 30 sites).
#include "bench_common.h"

int main() {
  using namespace curtain;
  bench::banner("Table 5", "Resolver census: unique IPs and /24s per provider");

  const auto& dataset = bench::study().records();
  const auto census = analysis::resolver_census(dataset);
  const auto kind = [](measure::ResolverKind k) { return static_cast<size_t>(k); };
  std::printf("  %-12s %-18s %-18s %-18s\n", "Provider", "Local (IP,/24)",
              "GoogleDNS (IP,/24)", "OpenDNS (IP,/24)");
  for (const auto& row : census) {
    std::printf("  %-12s (%zu, %zu)%*s(%zu, %zu)%*s(%zu, %zu)\n",
                dataset.carrier_name(row.carrier_index).c_str(),
                row.unique_ips[kind(measure::ResolverKind::kLocal)],
                row.unique_slash24s[kind(measure::ResolverKind::kLocal)], 8, "",
                row.unique_ips[kind(measure::ResolverKind::kGoogle)],
                row.unique_slash24s[kind(measure::ResolverKind::kGoogle)], 8, "",
                row.unique_ips[kind(measure::ResolverKind::kOpenDns)],
                row.unique_slash24s[kind(measure::ResolverKind::kOpenDns)]);
  }
  return 0;
}
