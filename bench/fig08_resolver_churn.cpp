// Figure 8: external resolvers observed by individual clients over time —
// distinct IPs (bottom panels) and distinct /24s (top panels). The paper:
// AT&T/Verizon relatively stable; Sprint/T-Mobile unstable across /24s;
// SK carriers churn many IPs inside 1-2 /24s.
#include "bench_common.h"
#include "net/time.h"

int main() {
  using namespace curtain;
  bench::banner("Figure 8", "External-resolver churn per client over time");

  const auto& dataset = bench::study().records();
  for (int c = 0; c < 6; ++c) {
    const auto timelines = analysis::resolver_timelines(
        dataset, c, measure::ResolverKind::kLocal);
    size_t max_ips = 0;
    size_t max_prefixes = 0;
    double mean_ips = 0.0;
    for (const auto& timeline : timelines) {
      max_ips = std::max(max_ips, timeline.unique_ips());
      max_prefixes = std::max(max_prefixes, timeline.unique_slash24s());
      mean_ips += static_cast<double>(timeline.unique_ips());
    }
    if (!timelines.empty()) mean_ips /= static_cast<double>(timelines.size());
    std::printf("%s: clients=%zu  unique IPs per client mean=%.1f max=%zu  "
                "max /24s=%zu\n",
                dataset.carrier_name(c).c_str(), timelines.size(), mean_ips,
                max_ips, max_prefixes);

    // The busiest client's association series, day-labelled as in the
    // paper's panels.
    const analysis::ResolverTimeline* busiest = nullptr;
    for (const auto& timeline : timelines) {
      if (busiest == nullptr || timeline.unique_ips() > busiest->unique_ips()) {
        busiest = &timeline;
      }
    }
    if (busiest != nullptr) {
      std::printf("    device %llu series:",
                  static_cast<unsigned long long>(busiest->device_id));
      const size_t step = std::max<size_t>(1, busiest->times.size() / 12);
      for (size_t i = 0; i < busiest->times.size(); i += step) {
        std::printf(" %s:ip#%d/%d",
                    net::CampaignCalendar::day_label(busiest->times[i]).c_str(),
                    busiest->ip_rank[i], busiest->slash24_rank[i]);
      }
      std::printf("\n");
    }
  }
  return 0;
}
