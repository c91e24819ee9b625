#include "core/timeseries.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ecnd {

void TimeSeries::push(double t, double value) {
  assert(samples_.empty() || t >= samples_.back().t);
  samples_.push_back({t, value});
}

double TimeSeries::first_time() const {
  return samples_.empty() ? 0.0 : samples_.front().t;
}

double TimeSeries::last_time() const {
  return samples_.empty() ? 0.0 : samples_.back().t;
}

double TimeSeries::value_at(double t) const {
  if (samples_.empty()) return 0.0;
  if (!(t > samples_.front().t)) return samples_.front().value;  // NaN too
  if (t >= samples_.back().t) return samples_.back().value;
  const auto it = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const Sample& s, double tt) { return s.t < tt; });
  const Sample& hi = *it;
  const Sample& lo = *(it - 1);
  const double span = hi.t - lo.t;
  if (span <= 0.0) return hi.value;
  const double w = (t - lo.t) / span;
  return lo.value + w * (hi.value - lo.value);
}

std::span<const Sample> TimeSeries::window(double t0, double t1) const {
  // Written so a NaN bound compares false and keeps every sample on its side.
  const auto first = std::partition_point(
      samples_.begin(), samples_.end(),
      [t0](const Sample& s) { return s.t < t0; });
  const auto last = std::partition_point(
      first, samples_.end(), [t1](const Sample& s) { return !(s.t > t1); });
  return {first, last};
}

std::optional<double> TimeSeries::min_over(double t0, double t1) const {
  std::optional<double> m;
  for (const Sample& s : window(t0, t1)) {
    m = m ? std::min(*m, s.value) : s.value;
  }
  return m;
}

std::optional<double> TimeSeries::max_over(double t0, double t1) const {
  std::optional<double> m;
  for (const Sample& s : window(t0, t1)) {
    m = m ? std::max(*m, s.value) : s.value;
  }
  return m;
}

double TimeSeries::mean_over(double t0, double t1) const {
  // Trapezoidal time-weighted mean; falls back to plain mean for <2 samples.
  const std::span<const Sample> w = window(t0, t1);
  if (w.empty()) return 0.0;
  if (w.size() == 1) return w.front().value;
  double area = 0.0;
  for (std::size_t i = 1; i < w.size(); ++i) {
    const double dt = w[i].t - w[i - 1].t;
    area += 0.5 * (w[i].value + w[i - 1].value) * dt;
  }
  const double span = w.back().t - w.front().t;
  if (span <= 0.0) return w.front().value;
  return area / span;
}

double TimeSeries::stddev_over(double t0, double t1) const {
  // Trapezoidal integral of (x - mean)^2 about the trapezoidal mean, matching
  // mean_over's weighting: a dense burst of samples contributes by the time
  // it covers, not by its sample count. Degenerate spans (<2 samples, or all
  // samples at one instant) fall back to the plain sample deviation.
  const std::span<const Sample> w = window(t0, t1);
  if (w.size() < 2) return 0.0;
  const double span = w.back().t - w.front().t;
  if (span <= 0.0) {
    double sum = 0.0, sum2 = 0.0;
    for (const Sample& s : w) {
      sum += s.value;
      sum2 += s.value * s.value;
    }
    const double n = static_cast<double>(w.size());
    const double mean = sum / n;
    return std::sqrt(std::max(0.0, sum2 / n - mean * mean));
  }
  const double mean = mean_over(t0, t1);
  double area = 0.0;
  for (std::size_t i = 1; i < w.size(); ++i) {
    const double dt = w[i].t - w[i - 1].t;
    const double d0 = w[i - 1].value - mean;
    const double d1 = w[i].value - mean;
    area += 0.5 * (d0 * d0 + d1 * d1) * dt;
  }
  return std::sqrt(std::max(0.0, area / span));
}

TimeSeries TimeSeries::resampled(std::size_t n, double t0, double t1) const {
  TimeSeries out(name_);
  if (samples_.empty() || n == 0) return out;
  // The span's end first, so a NaN bound means that end, as in window().
  t0 = std::max(first_time(), t0);
  t1 = std::min(last_time(), t1);
  if (t1 < t0) {
    // Window entirely outside the span: clamp to the nearest endpoint so a
    // non-empty series always yields at least one sample (analyzers window
    // their inputs and must not lose the signal to an off-by-one window).
    const double t = t0 > last_time() ? last_time() : first_time();
    out.push(t, value_at(t));
    return out;
  }
  if (n == 1 || t1 <= t0) {
    out.push(t0, value_at(t0));
    return out;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double t = t0 + (t1 - t0) * static_cast<double>(i) / static_cast<double>(n - 1);
    out.push(t, value_at(t));
  }
  return out;
}

}  // namespace ecnd
