#include "core/stats.hpp"

#include <algorithm>

#include "core/diagnostic.hpp"

namespace ecnd {

std::optional<double> percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::optional<double> jain_fairness(const std::vector<double>& values) {
  if (values.empty()) return std::nullopt;
  double sum = 0.0, sum2 = 0.0;
  for (double v : values) {
    sum += v;
    sum2 += v * v;
  }
  if (sum2 <= 0.0) return std::nullopt;
  return sum * sum / (static_cast<double>(values.size()) * sum2);
}

double require_stat(const std::optional<double>& value, const std::string& what) {
  if (!value) {
    throw InvariantViolation(Diagnostic::make(
        "stats", what, 0.0, 0.0,
        "statistic over empty input — a run produced no samples where the "
        "harness expected a population"));
  }
  return *value;
}

std::vector<CdfPoint> empirical_cdf(std::vector<double> values, std::size_t max_points) {
  std::vector<CdfPoint> cdf;
  if (values.empty() || max_points == 0) return cdf;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t points = std::min(max_points, n);
  cdf.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    // Pick ranks spread evenly, always ending on the maximum.
    const std::size_t rank =
        (points == 1) ? n - 1 : i * (n - 1) / (points - 1);
    cdf.push_back({values[rank], static_cast<double>(rank + 1) / static_cast<double>(n)});
  }
  return cdf;
}

}  // namespace ecnd
