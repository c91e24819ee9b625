#pragma once
// Time-series recording used by both the fluid models (queue/rate traces)
// and the packet simulator (queue sampling, per-flow throughput traces).

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ecnd {

/// A (time, value) sample. Time is in seconds throughout the analysis layer.
struct Sample {
  double t = 0.0;
  double value = 0.0;
};

/// Append-only series of samples with simple analysis helpers. Samples must
/// be appended in non-decreasing time order (checked in debug builds).
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  void push(double t, double value);
  void clear() { samples_.clear(); }

  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }
  const Sample& operator[](std::size_t i) const { return samples_[i]; }
  const std::vector<Sample>& samples() const { return samples_; }
  const Sample& back() const { return samples_.back(); }

  double first_time() const;
  double last_time() const;

  /// Linear interpolation at time t (clamped to the series' span; a NaN t
  /// reads the first sample).
  double value_at(double t) const;

  /// The samples with t in [t0, t1]; empty when t1 < t0. Every windowed
  /// statistic, here and in obs/analyzers.hpp, reads through this view. A
  /// NaN bound does not restrict its side.
  std::span<const Sample> window(double t0, double t1) const;

  /// Extremes over samples with t in [t0, t1]. An empty window is not a
  /// measurement: it yields nullopt, never a fake 0.0 (use
  /// require_stat() from core/stats.hpp where a value is mandatory).
  std::optional<double> min_over(double t0, double t1) const;
  std::optional<double> max_over(double t0, double t1) const;
  /// Time-weighted mean over [t0, t1] (trapezoidal); empty window -> 0.
  double mean_over(double t0, double t1) const;
  /// Time-weighted population standard deviation over [t0, t1]: trapezoidal
  /// integral of the squared deviation about the trapezoidal mean, so
  /// unevenly sampled traces are not biased toward burst regions. Empty or
  /// single-sample window -> 0.
  double stddev_over(double t0, double t1) const;

  /// Evenly resampled copy with n points across [t0, t1] (clamped to the
  /// series' span), so a rendering matches windowed statistics. Degenerate
  /// requests stay well-defined: n == 0 (or an empty series) yields an empty
  /// copy; n == 1, t0 == t1, or a window that clamps to a single instant
  /// yields exactly one sample; a window entirely outside the span clamps to
  /// the nearest endpoint. A NaN bound means that end of the span.
  TimeSeries resampled(std::size_t n, double t0, double t1) const;

 private:
  std::string name_;
  std::vector<Sample> samples_;
};

}  // namespace ecnd
