// Section 2.2 motivation: why IP-based client identification fails in
// cellular networks (Balakrishnan et al., IMC'09, as cited by the paper).
//
// From the campaign dataset, measures (a) how quickly a device's public
// address churns and (b) how geographically spread the devices sharing one
// /24 are — the two properties that break IP geolocation and motivate
// DNS-based (and ultimately better-than-DNS) client localization.
#include <map>
#include <set>

#include "bench_common.h"
#include "net/geo.h"

int main() {
  using namespace curtain;
  bench::banner("Sec 2.2", "Ephemeral, itinerant client IPs (geolocation failure)");

  const auto& dataset = bench::study().records();

  for (int c = 0; c < 6; ++c) {
    // (a) distinct public IPs per device.
    std::map<uint64_t, std::set<uint32_t>> ips_per_device;
    std::map<uint64_t, size_t> experiments_per_device;
    // (b) per /24: locations observed using it.
    std::map<uint32_t, std::vector<net::GeoPoint>> locations_per_prefix;
    for (const auto experiment : dataset.experiments()) {
      const auto& context = experiment.context();
      if (context.carrier_index != c) continue;
      ips_per_device[context.device_id].insert(context.public_ip.value());
      ++experiments_per_device[context.device_id];
      locations_per_prefix[context.public_ip.slash24().value()].push_back(
          context.location);
    }
    if (ips_per_device.empty()) continue;

    double churn = 0.0;
    for (const auto& [device, ips] : ips_per_device) {
      churn += static_cast<double>(ips.size()) /
               static_cast<double>(experiments_per_device[device]);
    }
    churn /= static_cast<double>(ips_per_device.size());

    // Max pairwise spread within each /24, aggregated.
    analysis::Ecdf spread_km;
    for (const auto& [prefix, locations] : locations_per_prefix) {
      if (locations.size() < 2) continue;
      double max_distance = 0.0;
      for (size_t i = 0; i < locations.size(); i += 7) {
        for (size_t j = i + 1; j < locations.size(); j += 7) {
          max_distance = std::max(
              max_distance, net::distance_km(locations[i], locations[j]));
        }
      }
      spread_km.add(max_distance);
    }

    std::printf("%-12s new IP per experiment: %.2f   /24 geographic spread: "
                "p50=%.0f km p90=%.0f km\n",
                dataset.carrier_name(c).c_str(), churn,
                spread_km.quantile(0.5), spread_km.quantile(0.9));
  }
  std::printf("\nA /24 whose users span hundreds of km carries no usable\n"
              "location signal — geolocating cellular clients by IP fails\n"
              "(paper §2.2), which is why CDNs leaned on LDNS instead.\n");
  return 0;
}
