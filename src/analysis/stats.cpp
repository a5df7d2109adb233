#include "analysis/stats.h"

#include <algorithm>
#include <cmath>

#include "net/rng.h"
#include "util/strings.h"

namespace curtain::analysis {

void Ecdf::add_all(const std::vector<double>& values) {
  values_.insert(values_.end(), values.begin(), values.end());
  sorted_ = false;
}

void Ecdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Ecdf::quantile(double p) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  if (p <= 0.0) return values_.front();
  if (p >= 1.0) return values_.back();
  const double position = p * static_cast<double>(values_.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  const double fraction = position - static_cast<double>(lower);
  if (lower + 1 >= values_.size()) return values_.back();
  return values_[lower] * (1.0 - fraction) + values_[lower + 1] * fraction;
}

double Ecdf::min() const {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.front();
}

double Ecdf::max() const {
  ensure_sorted();
  return values_.empty() ? 0.0 : values_.back();
}

double Ecdf::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Ecdf::fraction_at_or_below(double x) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(values_.begin(), values_.end(), x);
  return static_cast<double>(it - values_.begin()) /
         static_cast<double>(values_.size());
}

std::vector<std::pair<double, double>> Ecdf::curve(int points) const {
  std::vector<std::pair<double, double>> out;
  if (points < 2) points = 2;
  out.reserve(static_cast<size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double p = static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(p, quantile(p));
  }
  return out;
}

const std::vector<double>& Ecdf::sorted_values() const {
  ensure_sorted();
  return values_;
}

ConfidenceInterval bootstrap_fraction_at_or_below(const Ecdf& cdf, double x,
                                                  int resamples, uint64_t seed,
                                                  double confidence) {
  ConfidenceInterval interval;
  interval.point = cdf.fraction_at_or_below(x);
  // A resample draws n samples with replacement; the number at or below x
  // among them is exactly Binomial(n, rank / n), where rank counts the
  // samples at or below x. So each resample draws that count directly: one
  // uniform through the binomial's CDF table (DESIGN.md §19). With rank 0
  // or n every resample repeats the point estimate.
  const auto& samples = cdf.sorted_values();
  const uint64_t n = samples.size();
  const auto rank = static_cast<uint64_t>(
      std::partition_point(samples.begin(), samples.end(),
                           [x](double v) { return v <= x; }) -
      samples.begin());
  if (n < 2 || resamples <= 0 || rank == 0 || rank == n) {
    interval.low = interval.high = interval.point;
    return interval;
  }
  const net::Binomial draw_count(
      n, static_cast<double>(rank) / static_cast<double>(n));
  net::Rng rng(seed);
  std::vector<double> fractions;
  fractions.reserve(static_cast<size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    fractions.push_back(static_cast<double>(draw_count(rng)) /
                        static_cast<double>(n));
  }
  std::sort(fractions.begin(), fractions.end());
  const double alpha = (1.0 - confidence) / 2.0;
  const auto index = [&](double q) {
    return fractions[std::min(
        fractions.size() - 1,
        static_cast<size_t>(q * static_cast<double>(fractions.size())))];
  };
  interval.low = index(alpha);
  interval.high = index(1.0 - alpha);
  return interval;
}

std::string describe_cdf(const Ecdf& cdf) {
  if (cdf.empty()) return "(no samples)";
  std::string out = "n=" + std::to_string(cdf.size());
  static constexpr std::pair<const char*, double> kPoints[] = {
      {"p10", 0.10}, {"p25", 0.25}, {"p50", 0.50},
      {"p75", 0.75}, {"p90", 0.90}, {"p99", 0.99}};
  for (const auto& [label, p] : kPoints) {
    out += "  ";
    out += label;
    out += "=";
    out += util::format_double(cdf.quantile(p), 1);
  }
  return out;
}

}  // namespace curtain::analysis
