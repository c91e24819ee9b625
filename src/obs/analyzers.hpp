#pragma once
// Derived-observable analyzers: the semantic layer between recorded
// TimeSeries and the paper's claims. Every claim in EXPERIMENTS.md is stated
// in terms of quantities like "time to converge to the Theorem-1 fixed
// point", "peak-to-peak oscillation where the phase margin goes negative",
// "Jain fairness over the settled tail" or "queue overshoot above the RED
// band" — these functions compute exactly those, so run manifests
// (obs/manifest.hpp) and the expectation-gated regression report
// (src/report) can check them by machine instead of by eye.
//
// settling_time, overshoot and oscillation read the samples with t in
// [t0, t1] that TimeSeries::window selects. windowed_jain interpolates each
// flow with TimeSeries::value_at on a uniform grid across [t0, t1], which
// may read the samples just outside it.
//
// Analyzers are pure computation — no globals, no output, no RNG — so
// ECND_OBS=OFF leaves them compiled (it gates export layers like the metrics
// registry and the manifest writer, not math). They are inline because they
// call ecnd_core, which links ecnd_obs and so cannot be linked by it; every
// program that includes this header links ecnd_core.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/stats.hpp"
#include "core/timeseries.hpp"

namespace ecnd::obs {

namespace detail {

/// Interpolated time where the segment a -> b crosses `level`, clamped to
/// the segment. Falls back to b.t on a flat segment.
inline double cross_time(const Sample& a, const Sample& b, double level) {
  const double dv = b.value - a.value;
  if (dv == 0.0) return b.t;
  const double w = (level - a.value) / dv;
  if (w <= 0.0) return a.t;
  if (w >= 1.0) return b.t;
  return a.t + w * (b.t - a.t);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// settling_time: when did the signal enter an ε-band around a target and
// stay there? This is "convergence time to the Theorem-1 / Eq-14 fixed
// point".
// ---------------------------------------------------------------------------

struct SettlingParams {
  double target = 0.0;   ///< band center (the predicted fixed point)
  double epsilon = 0.0;  ///< half-width: inside means |v - target| <= epsilon
  /// The signal only counts as settled if its final in-band stretch lasted
  /// at least this long (guards against a run that *ends* mid-swing inside
  /// the band). 0 = any non-empty stretch.
  double min_dwell = 0.0;
};

struct SettlingResult {
  bool settled = false;
  /// Absolute time of the final entry into the band, linearly interpolated
  /// between the last outside sample and the next one on the band edge the
  /// outside sample lay beyond; the window's first sample time if no sample
  /// was outside. Subtract the flow/scenario start time for a duration.
  /// Valid only when settled.
  double settle_t = 0.0;
};

/// Settling over the samples with t in [t0, t1]. An empty window, or one
/// that ends outside the band, has not settled.
inline SettlingResult settling_time(const TimeSeries& series,
                                    SettlingParams params, double t0,
                                    double t1) {
  const std::span<const Sample> w = series.window(t0, t1);
  const auto inside = [&params](const Sample& s) {
    return std::abs(s.value - params.target) <= params.epsilon;
  };
  // Scan back over the final in-band stretch w[k..].
  std::size_t k = w.size();
  while (k > 0 && inside(w[k - 1])) --k;
  SettlingResult r;
  if (k == w.size()) return r;
  double entry = w.front().t;
  if (k > 0) {
    const Sample& outside = w[k - 1];
    const double edge = outside.value > params.target
                            ? params.target + params.epsilon
                            : params.target - params.epsilon;
    entry = detail::cross_time(outside, w[k], edge);
  }
  if (w.back().t - entry >= params.min_dwell) {
    r.settled = true;
    r.settle_t = entry;
  }
  return r;
}

// ---------------------------------------------------------------------------
// overshoot: largest excursion above a target — "queue overshoot above the
// RED band" (Figures 2, 12, 16).
// ---------------------------------------------------------------------------

struct OvershootResult {
  double max_excursion = 0.0;  ///< max(v - target, 0) over the window
  /// Fraction of observed time spent above the target (trapezoidal on the
  /// indicator's linear crossings). A window of one instant reads 1 when
  /// its last sample lies above the target, else 0.
  double time_above_fraction = 0.0;
};

/// Overshoot over the samples with t in [t0, t1]; an empty window yields
/// the default result.
inline OvershootResult overshoot(const TimeSeries& series, double target,
                                 double t0, double t1) {
  const std::span<const Sample> w = series.window(t0, t1);
  OvershootResult r;
  if (w.empty()) return r;
  for (const Sample& s : w) {
    r.max_excursion = std::max(r.max_excursion, s.value - target);
  }
  double above = 0.0;
  for (std::size_t i = 1; i < w.size(); ++i) {
    // Time above target on this segment, split at the crossing when the
    // two ends straddle the target.
    const Sample& a = w[i - 1];
    const Sample& b = w[i];
    const double dt = b.t - a.t;
    if (!(dt > 0.0)) continue;
    const bool was_above = a.value > target;
    const bool is_above = b.value > target;
    if (was_above && is_above) {
      above += dt;
    } else if (was_above != is_above) {
      const double tc = detail::cross_time(a, b, target);
      above += was_above ? tc - a.t : b.t - tc;
    }
  }
  const double span = w.back().t - w.front().t;
  r.time_above_fraction = span > 0.0 ? above / span
                                     : (w.back().value > target ? 1.0 : 0.0);
  return r;
}

// ---------------------------------------------------------------------------
// oscillation: peak-to-peak amplitude and dominant period over a
// steady-state window, via hysteresis-filtered crossings of a reference
// level — "oscillation amplitude/period where phase margins go negative"
// (Figures 3-5, 11, 20).
// ---------------------------------------------------------------------------

struct OscillationResult {
  double peak_to_peak = 0.0;  ///< max - min over the window
  /// Dominant period from the mean half-period between reference crossings:
  /// 2 * (last crossing - first crossing) / (crossings - 1). 0 when fewer
  /// than two crossings were seen (no oscillation to speak of).
  double period = 0.0;
  int crossings = 0;
};

/// Oscillation over the samples with t in [t0, t1]. `reference` is the
/// crossing level (typically the predicted fixed point); when not given it
/// is the window's time-weighted mean. A crossing only registers after the
/// signal moves at least `hysteresis` beyond the reference on the other
/// side (noise rejection); 0 counts every sign change.
inline OscillationResult oscillation(
    const TimeSeries& series, double t0, double t1,
    std::optional<double> reference = std::nullopt, double hysteresis = 0.0) {
  const std::span<const Sample> w = series.window(t0, t1);
  OscillationResult r;
  if (w.empty()) return r;
  double ref = 0.0;
  if (reference) {
    ref = *reference;
  } else {
    // Trapezoid area over the sum of the sample steps; a window of one
    // instant falls back to its last value.
    double area = 0.0, span = 0.0;
    for (std::size_t i = 1; i < w.size(); ++i) {
      area += 0.5 * (w[i].value + w[i - 1].value) * (w[i].t - w[i - 1].t);
      span += w[i].t - w[i - 1].t;
    }
    ref = span > 0.0 ? area / span : w.back().value;
  }
  double lo = w.front().value, hi = w.front().value;
  // +1 above the reference, -1 below, 0 until the signal first leaves the
  // hysteresis band.
  int side = 0;
  double first_cross = 0.0, last_cross = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double v = w[i].value;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    // The side only flips once the signal is a full `hysteresis` beyond the
    // reference on the other side.
    const int now = v > ref + hysteresis ? 1 : v < ref - hysteresis ? -1 : side;
    if (side != 0 && now != side) {
      const double tc = detail::cross_time(w[i - 1], w[i], ref);
      if (r.crossings == 0) first_cross = tc;
      last_cross = tc;
      ++r.crossings;
    }
    side = now;
  }
  r.peak_to_peak = hi - lo;
  if (r.crossings >= 2) {
    // Each adjacent crossing pair spans half a period.
    r.period = 2.0 * (last_cross - first_cross) /
               static_cast<double>(r.crossings - 1);
  }
  return r;
}

// ---------------------------------------------------------------------------
// windowed_jain: Jain's index over tumbling windows of the per-flow rates —
// "fairness trajectories" (Figures 9, 19).
// ---------------------------------------------------------------------------

/// The worst Jain index over tumbling windows of `window` seconds from t0.
/// Each flow's series is interpolated on the uniform grid t0 + i·dt up to
/// t1, so the result depends on the series and the window, never on each
/// flow's own sample times. A grid step that crosses a window boundary is
/// split there at the interpolated rates, and the trailing partial window
/// counts. A window's index is core::jain_fairness of the per-flow
/// time-weighted means; a window without traffic has none and is skipped.
/// nullopt when no window has traffic or `flows` is empty. Throws
/// std::invalid_argument unless dt > 0, window > 0, t0 and t1 are finite
/// with t0 <= t1, every series is non-null and non-empty, the window is at
/// least the spacing of doubles at t0 and at t1 (a smaller one could leave
/// a window's end equal to its start, and the loop would never advance), and
/// (t1 - t0) / dt is below 2^53 (past it the step index is not exact).
inline std::optional<double> windowed_jain(
    const std::vector<const TimeSeries*>& flows, double window, double dt,
    double t0, double t1) {
  if (flows.empty()) return std::nullopt;
  if (!(dt > 0.0)) throw std::invalid_argument("windowed_jain: dt must be > 0");
  if (!std::isfinite(t0) || !std::isfinite(t1) || t1 < t0) {
    throw std::invalid_argument(
        "windowed_jain: t0 and t1 must be finite with t0 <= t1");
  }
  for (const TimeSeries* f : flows) {
    if (f == nullptr || f->empty()) {
      throw std::invalid_argument("windowed_jain: null or empty flow series");
    }
  }
  if (!(window > 0.0)) {
    throw std::invalid_argument("windowed_jain: window must be > 0");
  }
  // t + window / 2 > t only when the window spans the gap from t to the
  // next double. The widest gap in [t0, t1] is at an end, and a window that
  // spans it always moves `start`. t + window > t alone would pass half a
  // gap, whose tie can round back onto an even `start`.
  if (!(t0 + 0.5 * window > t0) || !(t1 + 0.5 * window > t1)) {
    throw std::invalid_argument(
        "windowed_jain: window is below the spacing of doubles at t0 or t1");
  }
  if (!((t1 - t0) / dt < 0x1p53)) {
    throw std::invalid_argument("windowed_jain: (t1 - t0) / dt must be below 2^53");
  }
  const std::size_t n = flows.size();
  std::vector<double> prev(n), rates(n), area(n, 0.0);
  for (std::size_t f = 0; f < n; ++f) prev[f] = flows[f]->value_at(t0);
  std::optional<double> worst;
  double start = t0;  // the open window's start
  const auto close = [&](double end) {
    const double span = end - start;
    for (std::size_t f = 0; f < n; ++f) {
      area[f] = span > 0.0 ? area[f] / span : prev[f];  // the window's means
    }
    if (const std::optional<double> jain = jain_fairness(area)) {
      worst = worst ? std::min(*worst, *jain) : *jain;
    }
    std::fill(area.begin(), area.end(), 0.0);
    start = end;
  };
  const auto steps = static_cast<std::size_t>(std::floor((t1 - t0) / dt));
  double last = t0;
  for (std::size_t i = 1; i <= steps; ++i) {
    const double t = t0 + static_cast<double>(i) * dt;
    for (std::size_t f = 0; f < n; ++f) rates[f] = flows[f]->value_at(t);
    double seg_start = last;
    while (t - start >= window) {
      const double boundary = start + window;
      const double seg = t - seg_start;
      const double frac = seg > 0.0 ? (boundary - seg_start) / seg : 0.0;
      for (std::size_t f = 0; f < n; ++f) {
        const double at_boundary = prev[f] + frac * (rates[f] - prev[f]);
        area[f] += 0.5 * (prev[f] + at_boundary) * (boundary - seg_start);
        prev[f] = at_boundary;
      }
      seg_start = boundary;
      close(boundary);
    }
    for (std::size_t f = 0; f < n; ++f) {
      area[f] += 0.5 * (prev[f] + rates[f]) * (t - seg_start);
      prev[f] = rates[f];
    }
    last = t;
  }
  if (last > start) close(last);
  return worst;
}

}  // namespace ecnd::obs
