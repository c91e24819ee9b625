#include "fluid/dde_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <ranges>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace ecnd::fluid {
namespace {

// Fluid-engine metrics.
// fluid.rhs_evals is 4x fluid.rk4_steps; fluid.lookup_clamped
// counts delayed-state reads that fell off either end of the history window;
// fluid.lookup_hint_hits counts interior reads served by their lane's cursor
// walk (close to 100% of interior reads for the forward-moving RK4 lookup
// pattern) and values_at() repeats; reads resolved by the computed bracket or
// its binary search are not counted.
const obs::Counter kRk4Steps = obs::counter("fluid.rk4_steps");
const obs::Counter kRhsEvals = obs::counter("fluid.rhs_evals");
const obs::Counter kDelayedLookups = obs::counter("fluid.delayed_lookups");
const obs::Counter kLookupClamped = obs::counter("fluid.lookup_clamped");
const obs::Counter kLookupHintHits = obs::counter("fluid.lookup_hint_hits");

// A stale cursor can lag arbitrarily far behind a forward jump; walking more
// than a few entries costs more than computing the bracket afresh.
constexpr int kMaxHintWalk = 8;

/// Linear interpolation between the samples (t_lo, v_lo) and (t_hi, v_hi);
/// the later value when they share a time. Every scalar lookup uses this
/// one expression, so all of them agree bit for bit.
double lerp(double t, double t_lo, double t_hi, double v_lo, double v_hi) {
  const double span = t_hi - t_lo;
  if (span <= 0.0) return v_hi;
  const double w = (t - t_lo) / span;
  return v_lo + w * (v_hi - v_lo);
}

}  // namespace

void History::Ring::push(double t, const double* row) {
  if (size() == capacity) reserve(std::max<std::size_t>(4, 2 * capacity));
  const std::size_t s = slot(end);
  if (s == times.size()) {  // the slots are still filling
    times.push_back(t);
    vals.insert(vals.end(), row, row + width);
  } else {
    times[s] = t;
    std::copy(row, row + width, vals.data() + s * width);
  }
  ++end;
}

void History::Ring::reserve(std::size_t n) {
  assert(n >= size());
  std::vector<double> new_times;
  std::vector<double> new_vals;
  new_times.reserve(n);
  new_vals.reserve(n * width);
  for (std::size_t i = begin; i < end; ++i) {
    new_times.push_back(time(i));
    new_vals.insert(new_vals.end(), row(i), row(i) + width);
  }
  times = std::move(new_times);
  vals = std::move(new_vals);
  capacity = n;
  head = 0;
}

std::size_t History::Ring::lower_bound(std::size_t lo, double t) const {
  const auto indices = std::views::iota(lo, end);
  const auto first_at_or_after = std::ranges::partition_point(
      indices, [this, t](std::size_t i) { return time(i) < t; });
  return lo + static_cast<std::size_t>(first_at_or_after - indices.begin());
}

std::size_t History::Ring::bracket(double t) const {
  // The solver appends at t0 + k*dt, so the answer is about k =
  // ceil((t - t_first) / dt) samples past begin, with dt the mean spacing.
  // Rounding and hand-built histories put samples off that grid, so the
  // guess is only trusted once times[k-1] < t <= times[k] holds, which pins
  // down lower_bound's index.
  const std::size_t last = end - 1;
  const double t_first = time(begin);
  const double gaps = static_cast<double>(last - begin);
  const double pos = std::ceil((t - t_first) / (time(last) - t_first) * gaps);
  const std::size_t k =
      begin + (pos > 1.0 ? static_cast<std::size_t>(std::min(pos, gaps)) : 1);
  if (time(k - 1) < t && t <= time(k)) return k;
  return lower_bound(begin, t);
}

void History::append(double t, std::span<const double> x) {
  assert(x.size() == dim_);
  if (!empty() && !(t >= last_time())) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "sample at t=%.17g s is earlier than the newest sample at "
                  "t=%.17g s; samples must be appended in time order",
                  t, last_time());
    throw InvariantViolation(
        Diagnostic::make("History", "t", last_time(), t, detail));
  }
  rows_.push(t, x.data());
}

void History::reserve(std::size_t rows, std::size_t deep_rows) {
  rows_.reserve(rows);
  deep_.reserve(deep_rows);
}

std::size_t History::locate(const Ring& r, std::size_t& cursor, double t) {
  std::size_t hi = cursor;
  // The hint brackets a valid search start iff time(hi-1) < t: every index
  // below hi is then < t too, so the first index with time >= t lies at or
  // ahead of hi — exactly what lower_bound over the live samples returns.
  // A cursor at or below begin is stale: its slot may hold a newer sample.
  if (hi > r.begin && hi < r.end && r.time(hi - 1) < t) {
    for (int walked = 0; walked < kMaxHintWalk; ++walked) {
      if (r.time(hi) >= t) {
        kLookupHintHits.add();
        cursor = hi;
        return hi;
      }
      ++hi;  // cannot pass end-1: callers guarantee t <= the newest time
    }
  }
  cursor = r.bracket(t);
  return cursor;
}

void History::set_deep_retention(std::size_t var_begin, std::size_t var_count) {
  assert(empty());
  assert(var_count > 0 && var_begin + var_count <= dim_);
  deep_begin_ = var_begin;
  deep_.width = var_count;
}

double History::deep_value(std::size_t var, double t,
                           std::size_t& deep_cursor) const {
  const std::size_t col = var - deep_begin_;
  const std::size_t last = deep_.end - 1;
  if (t > deep_.time(last)) {
    // The row ring starts exactly one sample after the deep ring ends, so a
    // query between the two brackets across the boundary pair — the same
    // adjacent samples (and the same interpolation expression) an untrimmed
    // History would use.
    return lerp(t, deep_.time(last), rows_.time(rows_.begin),
                deep_.row(last)[col], rows_.row(rows_.begin)[var]);
  }
  const std::size_t hi = locate(deep_, deep_cursor, t);
  return lerp(t, deep_.time(hi - 1), deep_.time(hi), deep_.row(hi - 1)[col],
              deep_.row(hi)[col]);
}

std::span<const double> History::deep_clamped_range(
    double t, std::size_t var_begin, std::size_t var_count) const {
  batch_buf_.resize(var_count);
  for (std::size_t v = 0; v < var_count; ++v) {
    const std::size_t var = var_begin + v;
    if (deep_covers(var)) {
      batch_buf_[v] = t > deep_.time(deep_.begin)
                          ? deep_value(var, t, deep_cursor_)
                          : deep_.row(deep_.begin)[var - deep_begin_];
    } else {
      batch_buf_[v] = rows_.row(rows_.begin)[var];
    }
  }
  return {batch_buf_.data(), var_count};
}

double History::value(std::size_t var, double t) const {
  return value_lane(var, t, cursor_, deep_cursor_);
}

double History::value_lane(std::size_t var, double t, std::size_t& cursor,
                           std::size_t& deep_cursor) const {
  assert(var < dim_);
  assert(!empty());
  obs::ProfScope lookup_scope("fluid.history");
  kDelayedLookups.add();
  const std::size_t first = rows_.begin;
  const std::size_t last = rows_.end - 1;
  if (!(t > rows_.time(first))) {  // a NaN time clamps here too
    if (deep_covers(var) && deep_.size() > 0) {
      if (t > deep_.time(deep_.begin)) return deep_value(var, t, deep_cursor);
      kLookupClamped.add();
      return deep_.row(deep_.begin)[var - deep_begin_];
    }
    kLookupClamped.add();
    return rows_.row(first)[var];
  }
  if (t >= rows_.time(last)) {
    kLookupClamped.add();
    return rows_.row(last)[var];
  }
  const std::size_t hi = locate(rows_, cursor, t);
  return lerp(t, rows_.time(hi - 1), rows_.time(hi), rows_.row(hi - 1)[var],
              rows_.row(hi)[var]);
}

std::span<const double> History::values(double t, std::size_t var_begin,
                                        std::size_t var_count) const {
  assert(!empty());
  assert(var_begin + var_count <= dim_);
  obs::ProfScope lookup_scope("fluid.history");
  kDelayedLookups.add();
  const std::size_t first = rows_.begin;
  const std::size_t last = rows_.end - 1;
  if (!(t > rows_.time(first))) {  // a NaN time clamps here too
    if (deep_.size() > 0 && var_begin < deep_begin_ + deep_.width &&
        deep_begin_ < var_begin + var_count) {
      return deep_clamped_range(t, var_begin, var_count);
    }
    kLookupClamped.add();
    return {rows_.row(first) + var_begin, var_count};
  }
  if (t >= rows_.time(last)) {
    kLookupClamped.add();
    return {rows_.row(last) + var_begin, var_count};
  }
  const std::size_t hi = locate(rows_, cursor_, t);
  const double t_lo = rows_.time(hi - 1);
  const double span = rows_.time(hi) - t_lo;
  const double* row_lo = rows_.row(hi - 1) + var_begin;
  const double* row_hi = rows_.row(hi) + var_begin;
  if (span <= 0.0) return {row_hi, var_count};
  const double w = (t - t_lo) / span;
  batch_buf_.resize(var_count);
  for (std::size_t v = 0; v < var_count; ++v) {
    // Same expression as lerp(): results are bit-identical either way.
    batch_buf_[v] = row_lo[v] + w * (row_hi[v] - row_lo[v]);
  }
  return {batch_buf_.data(), var_count};
}

void History::values_at(std::size_t var, std::span<const double> times,
                        std::span<double> out) const {
  assert(times.size() == out.size());
  bool have_prev = false;
  double prev_t = 0.0;
  double prev_v = 0.0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double t = times[i];
    if (have_prev && t == prev_t) {
      kDelayedLookups.add();
      kLookupHintHits.add();
      out[i] = prev_v;
      continue;
    }
    prev_v = value_lane(var, t, at_cursor_, at_deep_cursor_);
    prev_t = t;
    have_prev = true;
    out[i] = prev_v;
  }
}

void History::trim_before(double t_keep) { trim_before(t_keep, t_keep); }

void History::trim_before(double t_keep_rows, double t_keep_deep) {
  if (rows_.size() >= 3) {
    // The sample before the first one at or after t_keep is the newest one
    // still needed to interpolate across t_keep; at least two stay.
    const std::size_t keep_from =
        std::min(rows_.lower_bound(rows_.begin + 1, t_keep_rows) - 1,
                 rows_.end - 2);
    if (keep_from > rows_.begin) {
      if (deep_.width > 0) {
        // Move the dropped rows' deep-retained columns into the deep ring
        // before their slots can be reused.
        for (std::size_t i = rows_.begin; i < keep_from; ++i) {
          deep_.push(rows_.time(i), rows_.row(i) + deep_begin_);
        }
      }
      rows_.drop_before(keep_from);
    }
  }
  // Trim the deep ring to its own (longer) window. Keep the bracket sample
  // before t_keep_deep; the ring may shrink to a single sample (the row ring
  // continues the timeline).
  if (deep_.size() >= 2) {
    const std::size_t keep_from =
        std::min(deep_.lower_bound(deep_.begin + 1, t_keep_deep) - 1,
                 deep_.end - 1);
    if (keep_from > deep_.begin) deep_.drop_before(keep_from);
  }
}

DdeSolver::DdeSolver(const DdeSystem& system, std::vector<double> initial_state,
                     double t0, double dt)
    : system_(system),
      t_(t0),
      t0_(t0),
      dt_(dt),
      x_(std::move(initial_state)),
      history_(system.dim()),
      k1_(system.dim()),
      k2_(system.dim()),
      k3_(system.dim()),
      k4_(system.dim()),
      tmp_(system.dim()),
      keep_rows_(system.max_row_delay() * 2.0 + 10.0 * dt),
      keep_deep_(system.max_delay() * 2.0 + 10.0 * dt),
      last_trim_(t0) {
  const std::size_t n = system_.dim();
  if (x_.size() != n) {
    throw InvariantViolation(Diagnostic::make(
        "DdeSolver", "initial_state", t0, static_cast<double>(x_.size()),
        "initial state has " + std::to_string(x_.size()) +
            " entries but the system's dimension is " + std::to_string(n)));
  }
  if (!(dt_ > 0.0) || !std::isfinite(dt_)) {
    throw InvariantViolation(Diagnostic::make(
        "DdeSolver", "dt", t0, dt_, "step size must be positive and finite"));
  }
  bounds_ = system_.bounds();
  std::sort(bounds_.begin(), bounds_.end(),
            [](const StateBounds& a, const StateBounds& b) {
              return a.first < b.first;
            });
  std::size_t covered = 0;  // end of the previous block
  for (const StateBounds& b : bounds_) {
    if (b.first < covered || b.count > n - b.first) {
      throw InvariantViolation(Diagnostic::make(
          "DdeSolver", "bounds", t0, static_cast<double>(b.first),
          "bounds block [" + std::to_string(b.first) + ", +" +
              std::to_string(b.count) +
              ") overlaps another block or leaves the state of dimension " +
              std::to_string(n)));
    }
    covered = b.first + b.count;
  }
  const bool deep = system.max_row_delay() < system.max_delay();
  if (deep) {
    const auto [first, count] = system.deep_vars();
    history_.set_deep_retention(first, count);
  }
  // Size both history rings once: a ring never holds more than its trim
  // window plus the steps between two trims (about keep_rows_ / dt), and 8
  // more samples cover the bracket sample and rounding. A window that is not
  // finite, or too long to count, reserves nothing: that ring grows as it
  // fills.
  const auto samples = [this](double window) -> std::size_t {
    const double n =
        std::ceil(window / dt_) + std::ceil(keep_rows_ / dt_) + 8.0;
    return n > 0.0 && n < 1e12 ? static_cast<std::size_t>(n) : 0;
  };
  history_.reserve(samples(keep_rows_), deep ? samples(keep_deep_) : 0);
  history_.append(t_, x_);
}

template <typename Value>
void DdeSolver::bounded_pass(double* out, Value value) const {
  std::size_t i = 0;
  for (const StateBounds& b : bounds_) {
    for (; i < b.first; ++i) out[i] = value(i);
    const std::size_t end = b.first + b.count;
    const double lo = b.lo;
    const double hi = b.hi;
    if (b.rule == StateBounds::Rule::kFloor) {
      for (; i < end; ++i) out[i] = std::max(lo, value(i));
    } else {
      for (; i < end; ++i) {
        const double v = value(i);
        out[i] = std::clamp(v, lo, hi);
      }
    }
  }
  for (const std::size_t n = x_.size(); i < n; ++i) out[i] = value(i);
}

void DdeSolver::advance() {
  kRk4Steps.add();
  kRhsEvals.add(4);
  obs::ProfScope rhs_scope("fluid.rhs");
  // Each stage state is built and bounded in one pass. The products keep
  // their written association: 0.5 * h * k is (0.5 * h) * k, and
  // h / 6.0 * (...) is (h / 6.0) * (...), so the hoisted factors are exact.
  const double* x = x_.data();
  const double* k1 = k1_.data();
  const double* k2 = k2_.data();
  const double* k3 = k3_.data();
  const double* k4 = k4_.data();
  const double h = dt_;
  const double half_h = 0.5 * h;
  system_.rhs(t_, x_, history_, k1_);
  bounded_pass(tmp_.data(), [=](std::size_t i) { return x[i] + half_h * k1[i]; });
  system_.rhs(t_ + 0.5 * h, tmp_, history_, k2_);
  bounded_pass(tmp_.data(), [=](std::size_t i) { return x[i] + half_h * k2[i]; });
  system_.rhs(t_ + 0.5 * h, tmp_, history_, k3_);
  bounded_pass(tmp_.data(), [=](std::size_t i) { return x[i] + h * k3[i]; });
  system_.rhs(t_ + h, tmp_, history_, k4_);

  const double h6 = h / 6.0;
  bounded_pass(x_.data(), [=](std::size_t i) {
    return x[i] + h6 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  });
}

void DdeSolver::step() {
  advance();
  ++step_index_;
  t_ = grid_time(step_index_);
  history_.append(t_, x_);

  // Trim history we can never look back into again (keep 2x max delay).
  // Full rows only need the row-delay window; deep-retained variables keep
  // the full max_delay() horizon (the two coincide for most systems).
  if (t_ - last_trim_ > keep_rows_) {
    history_.trim_before(t_ - keep_rows_, t_ - keep_deep_);
    last_trim_ = t_;
  }
}

void DdeSolver::run_until(
    double t_end,
    const std::function<void(double, std::span<const double>)>& observer,
    double sample_interval) {
  obs::ProfScope prof_scope("fluid.run");
  const bool tracing = obs::trace_enabled();
  // Index-based termination: the target step count is computed once from
  // (t_end - t0) / dt, so neither the step loop nor the sampling below
  // accumulates floating-point error — 1e7 steps end exactly where a single
  // computation says they should. The (1 - 1e-12) shaves representation
  // noise so a t_end that is meant to be a multiple of dt does not round up
  // to an extra step. Below 2^53 steps every index converts to a double
  // exactly, so grid_time(k) stays on the grid; the bound also rejects NaN.
  const double raw = (t_end - t0_) / dt_;
  if (!(raw < 0x1p53)) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "%.6g steps of dt=%.17g s from t0=%.17g s; the step count "
                  "must be below 2^53",
                  raw, dt_, t0_);
    throw InvariantViolation(
        Diagnostic::make("DdeSolver", "t_end", t_, t_end, detail));
  }
  std::uint64_t k_end = step_index_;
  if (raw > 0.0) {
    const auto k_raw = static_cast<std::uint64_t>(std::ceil(raw * (1.0 - 1e-12)));
    if (k_raw > k_end) k_end = k_raw;
  }
  const double t_anchor = t_;
  std::uint64_t sample_index = 0;  // next sample at t_anchor + index*interval
  while (step_index_ < k_end) {
    if (observer) {
      bool fire = sample_interval <= 0.0;
      if (!fire) {
        // The same representation-noise epsilon as k_end: a grid point that
        // is meant to *be* the sample instant (interval a multiple of dt)
        // must fire on it, not one step later, so sampling stays evenly
        // spaced instead of jittering by one dt on rounding luck.
        const double target = static_cast<double>(sample_index) * sample_interval;
        fire = t_ - t_anchor >= target * (1.0 - 1e-12);
      }
      if (fire) {
        observer(t_, x_);
        if (sample_interval > 0.0) {
          const double ratio = (t_ - t_anchor) / sample_interval;
          const auto crossed =
              static_cast<std::uint64_t>(std::floor(ratio)) + 1;
          sample_index = std::max(sample_index + 1, crossed);
        }
      }
    }
    step();
    obs::snapshot_tick(t_);
    if (tracing) obs::trace_instant("fluid.rk4_step", t_ * 1e6, x_.empty() ? 0.0 : x_[0]);
  }
  if (observer) observer(t_, x_);
}

}  // namespace ecnd::fluid
