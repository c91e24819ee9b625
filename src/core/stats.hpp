#pragma once
// Statistics helpers used by the experiment harnesses: percentiles, CDFs
// and Jain's fairness index.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace ecnd {

/// p-th percentile (p in [0,100]) by linear interpolation between closest
/// ranks. The input need not be sorted. An empty population has no
/// percentiles: the result is nullopt, never a plausible-looking 0.
std::optional<double> percentile(std::vector<double> values, double p);

/// Median shorthand.
inline std::optional<double> median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]; 1 = perfectly
/// fair. Empty and all-zero inputs are undefined (0/0) and yield nullopt.
std::optional<double> jain_fairness(const std::vector<double>& values);

/// Unwrap an optional statistic where a value is required for a table row.
/// An empty input dies loudly with an InvariantViolation whose Diagnostic
/// names the statistic, instead of letting a silent 0.0 pose as a
/// measurement; `what` should identify the statistic and its source, e.g.
/// "jain(tail_rates)".
double require_stat(const std::optional<double>& value, const std::string& what);

/// One point of an empirical CDF.
struct CdfPoint {
  double value = 0.0;
  double fraction = 0.0;  // P(X <= value)
};

/// Empirical CDF reduced to at most `max_points` points (always includes the
/// extremes). Useful for printing Figure-15-style curves.
std::vector<CdfPoint> empirical_cdf(std::vector<double> values,
                                    std::size_t max_points = 64);

}  // namespace ecnd
