#include "fluid/dde_solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace ecnd::fluid {
namespace {

// Fluid-engine metrics.
// fluid.rhs_evals is 4x the attempted RK4 advances; fluid.lookup_clamped
// counts delayed-state reads that fell off either end of the history window;
// fluid.lookup_hint_hits counts interior reads served by the monotonic
// cursor walk instead of a binary search (close to 100% of interior reads
// for the forward-moving RK4 lookup pattern).
const obs::Counter kRk4Steps = obs::counter("fluid.rk4_steps");
const obs::Counter kRhsEvals = obs::counter("fluid.rhs_evals");
const obs::Counter kStepRetries = obs::counter("fluid.step_retries");
const obs::Counter kDelayedLookups = obs::counter("fluid.delayed_lookups");
const obs::Counter kLookupClamped = obs::counter("fluid.lookup_clamped");
const obs::Counter kLookupHintHits = obs::counter("fluid.lookup_hint_hits");

// A stale cursor can lag arbitrarily far behind a forward jump; walking more
// than a few entries costs more than restarting the binary search.
constexpr int kMaxHintWalk = 8;

}  // namespace

void History::append(double t, std::span<const double> x) {
  assert(x.size() == dim_);
  assert(times_.empty() || t >= times_.back());
  times_.push_back(t);
  states_.insert(states_.end(), x.begin(), x.end());
}

std::size_t History::locate_in(const std::vector<double>& times,
                               std::size_t start, std::size_t& cursor,
                               double t) {
  const std::size_t n = times.size();
  std::size_t hi = cursor;
  // The hint brackets a valid search start iff times[hi-1] < t: every index
  // below hi is then < t too, so the first index with times[i] >= t lies at
  // or ahead of hi — exactly what lower_bound over [start, n) would return.
  if (hi > start && hi < n && times[hi - 1] < t) {
    for (int walked = 0; walked < kMaxHintWalk; ++walked) {
      if (times[hi] >= t) {
        kLookupHintHits.add();
        cursor = hi;
        return hi;
      }
      ++hi;  // cannot pass n-1: callers guarantee t <= times.back()
    }
  }
  const auto begin = times.begin() + static_cast<std::ptrdiff_t>(start);
  hi = static_cast<std::size_t>(std::lower_bound(begin, times.end(), t) -
                                times.begin());
  cursor = hi;
  return hi;
}

void History::set_deep_retention(std::size_t var_begin, std::size_t var_count) {
  assert(times_.empty());
  assert(var_count > 0 && var_begin + var_count <= dim_);
  deep_begin_ = var_begin;
  deep_count_ = var_count;
}

double History::deep_value(std::size_t var, double t) const {
  const std::size_t col = var - deep_begin_;
  const std::size_t m = deep_times_.size();
  if (t > deep_times_[m - 1]) {
    // The row store starts exactly one sample after the deep store ends, so
    // a query between the two brackets across the boundary pair — the same
    // adjacent samples (and the same interpolation expression) an untrimmed
    // History would use.
    const double lo_t = deep_times_[m - 1];
    const double vlo = deep_vals_[(m - 1) * deep_count_ + col];
    const double vhi = states_[start_ * dim_ + var];
    const double span = times_[start_] - lo_t;
    if (span <= 0.0) return vhi;
    const double w = (t - lo_t) / span;
    return vlo + w * (vhi - vlo);
  }
  const std::size_t hi = locate_in(deep_times_, deep_start_, deep_cursor_, t);
  const std::size_t lo = hi - 1;
  const double span = deep_times_[hi] - deep_times_[lo];
  const double vlo = deep_vals_[lo * deep_count_ + col];
  const double vhi = deep_vals_[hi * deep_count_ + col];
  if (span <= 0.0) return vhi;
  const double w = (t - deep_times_[lo]) / span;
  return vlo + w * (vhi - vlo);
}

std::span<const double> History::deep_clamped_range(
    double t, std::size_t var_begin, std::size_t var_count) const {
  batch_buf_.resize(var_count);
  for (std::size_t v = 0; v < var_count; ++v) {
    const std::size_t var = var_begin + v;
    if (deep_covers(var)) {
      batch_buf_[v] =
          t > deep_times_[deep_start_]
              ? deep_value(var, t)
              : deep_vals_[deep_start_ * deep_count_ + (var - deep_begin_)];
    } else {
      batch_buf_[v] = states_[start_ * dim_ + var];
    }
  }
  return {batch_buf_.data(), var_count};
}

double History::value(std::size_t var, double t) const {
  assert(var < dim_);
  assert(!times_.empty());
  obs::ProfScope lookup_scope("fluid.history");
  kDelayedLookups.add();
  const std::size_t n = times_.size();
  if (t <= times_[start_]) {
    if (deep_covers(var) && deep_start_ < deep_times_.size()) {
      if (t > deep_times_[deep_start_]) return deep_value(var, t);
      kLookupClamped.add();
      return deep_vals_[deep_start_ * deep_count_ + (var - deep_begin_)];
    }
    kLookupClamped.add();
    return states_[start_ * dim_ + var];
  }
  if (t >= times_[n - 1]) {
    kLookupClamped.add();
    return states_[(n - 1) * dim_ + var];
  }
  const std::size_t hi = locate(t);
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  const double vlo = states_[lo * dim_ + var];
  const double vhi = states_[hi * dim_ + var];
  if (span <= 0.0) return vhi;
  const double w = (t - times_[lo]) / span;
  return vlo + w * (vhi - vlo);
}

std::span<const double> History::values(double t) const {
  assert(!times_.empty());
  obs::ProfScope lookup_scope("fluid.history");
  kDelayedLookups.add();
  const std::size_t n = times_.size();
  // Clamped reads return the stored row directly — zero copy. Deep-covered
  // variables may still have older samples in the side store.
  if (t <= times_[start_]) {
    if (deep_count_ > 0 && deep_start_ < deep_times_.size()) {
      return deep_clamped_range(t, 0, dim_);
    }
    kLookupClamped.add();
    return {states_.data() + start_ * dim_, dim_};
  }
  if (t >= times_[n - 1]) {
    kLookupClamped.add();
    return {states_.data() + (n - 1) * dim_, dim_};
  }
  const std::size_t hi = locate(t);
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  const double* row_lo = states_.data() + lo * dim_;
  const double* row_hi = states_.data() + hi * dim_;
  if (span <= 0.0) return {row_hi, dim_};
  const double w = (t - times_[lo]) / span;
  batch_buf_.resize(dim_);
  for (std::size_t v = 0; v < dim_; ++v) {
    // Same expression as value(): results are bit-identical either way.
    batch_buf_[v] = row_lo[v] + w * (row_hi[v] - row_lo[v]);
  }
  return {batch_buf_.data(), dim_};
}

std::span<const double> History::values(double t, std::size_t var_begin,
                                        std::size_t var_count) const {
  assert(!times_.empty());
  assert(var_begin + var_count <= dim_);
  obs::ProfScope lookup_scope("fluid.history");
  kDelayedLookups.add();
  const std::size_t n = times_.size();
  if (t <= times_[start_]) {
    if (deep_count_ > 0 && deep_start_ < deep_times_.size() &&
        var_begin < deep_begin_ + deep_count_ &&
        deep_begin_ < var_begin + var_count) {
      return deep_clamped_range(t, var_begin, var_count);
    }
    kLookupClamped.add();
    return {states_.data() + start_ * dim_ + var_begin, var_count};
  }
  if (t >= times_[n - 1]) {
    kLookupClamped.add();
    return {states_.data() + (n - 1) * dim_ + var_begin, var_count};
  }
  const std::size_t hi = locate(t);
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  const double* row_lo = states_.data() + lo * dim_ + var_begin;
  const double* row_hi = states_.data() + hi * dim_ + var_begin;
  if (span <= 0.0) return {row_hi, var_count};
  const double w = (t - times_[lo]) / span;
  batch_buf_.resize(var_count);
  for (std::size_t v = 0; v < var_count; ++v) {
    // Same expression as value(): results are bit-identical either way.
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
    prev_v = value(var, t);
    prev_t = t;
    have_prev = true;
    out[i] = prev_v;
  }
}

void History::trim_before(double t_keep) { trim_before(t_keep, t_keep); }

void History::trim_before(double t_keep_rows, double t_keep_deep) {
  const std::size_t n = times_.size();
  if (n >= 3) {
    // First index past start_ with times_[i] >= t_keep; the entry before it
    // is the newest point still needed to interpolate across t_keep.
    const auto begin = times_.begin() + static_cast<std::ptrdiff_t>(start_ + 1);
    const std::size_t first_ge = static_cast<std::size_t>(
        std::lower_bound(begin, times_.end(), t_keep_rows) - times_.begin());
    const std::size_t new_start = std::min(first_ge - 1, n - 2);
    if (new_start > start_) {
      if (deep_count_ > 0) {
        // Move the dropped rows' deep-retained columns into the side store
        // before the rows become unreachable.
        for (std::size_t i = start_; i < new_start; ++i) {
          deep_times_.push_back(times_[i]);
          const double* row = states_.data() + i * dim_ + deep_begin_;
          deep_vals_.insert(deep_vals_.end(), row, row + deep_count_);
        }
      }
      start_ = new_start;
      // Physically compact occasionally to bound memory. The byte-based
      // clause matters for wide systems (10k-flow rows are ~240KB each):
      // waiting for 4096 dead rows would hold a gigabyte of dead prefix.
      if ((start_ > 4096 || start_ * dim_ > (std::size_t{1} << 20)) &&
          start_ > times_.size() / 2) {
        times_.erase(times_.begin(),
                     times_.begin() + static_cast<std::ptrdiff_t>(start_));
        states_.erase(
            states_.begin(),
            states_.begin() + static_cast<std::ptrdiff_t>(start_ * dim_));
        // Shift the cursor with the data; a cursor that pointed into the
        // erased prefix is simply invalidated (locate() re-validates before
        // trusting it).
        cursor_ = cursor_ >= start_ ? cursor_ - start_ : 0;
        start_ = 0;
      }
    }
  }
  if (deep_count_ == 0) return;
  // Trim the deep store to its own (longer) window. Keep the bracket sample
  // before t_keep_deep; the store may shrink to a single sample (the row
  // store continues the timeline).
  const std::size_t m = deep_times_.size();
  if (m - deep_start_ >= 2) {
    const auto dbegin =
        deep_times_.begin() + static_cast<std::ptrdiff_t>(deep_start_ + 1);
    const std::size_t first_ge = static_cast<std::size_t>(
        std::lower_bound(dbegin, deep_times_.end(), t_keep_deep) -
        deep_times_.begin());
    const std::size_t new_start = std::min(first_ge - 1, m - 1);
    if (new_start > deep_start_) deep_start_ = new_start;
  }
  if (deep_start_ > 4096 && deep_start_ > deep_times_.size() / 2) {
    deep_times_.erase(
        deep_times_.begin(),
        deep_times_.begin() + static_cast<std::ptrdiff_t>(deep_start_));
    deep_vals_.erase(deep_vals_.begin(),
                     deep_vals_.begin() + static_cast<std::ptrdiff_t>(
                                              deep_start_ * deep_count_));
    deep_cursor_ = deep_cursor_ >= deep_start_ ? deep_cursor_ - deep_start_ : 0;
    deep_start_ = 0;
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
  if (system.max_row_delay() < system.max_delay()) {
    const auto [first, count] = system.deep_vars();
    history_.set_deep_retention(first, count);
  }
  history_.append(t_, x_);
}

void DdeSolver::set_guard(Guard guard, int max_step_halvings) {
  guard_ = std::move(guard);
  max_step_halvings_ = max_step_halvings;
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

void DdeSolver::advance(double h) {
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

void DdeSolver::commit(double t_new) {
  t_ = t_new;
  history_.append(t_, x_);

  // Trim history we can never look back into again (keep 2x max delay).
  // Full rows only need the row-delay window; deep-retained variables keep
  // the full max_delay() horizon (the two coincide for most systems).
  const double keep = system_.max_row_delay() * 2.0 + 10.0 * dt_;
  if (t_ - last_trim_ > keep) {
    const double keep_deep = system_.max_delay() * 2.0 + 10.0 * dt_;
    history_.trim_before(t_ - keep, t_ - keep_deep);
    last_trim_ = t_;
  }
}

void DdeSolver::step() {
  if (!guard_) {
    advance(dt_);
    ++step_index_;
    commit(grid_time(step_index_));
    return;
  }

  // Guarded path: the nominal step may be split into several accepted
  // sub-steps, but it always finishes at the next grid point — a retry must
  // never shift the time grid for the rest of the run. The halving budget is
  // shared across the whole nominal step, so a guard that keeps rejecting
  // (e.g. a hard NaN wall mid-step) exhausts it and surfaces its diagnostic
  // instead of creeping toward the wall forever.
  const double t_next = grid_time(step_index_ + 1);
  int rejections = 0;
  while (t_ < t_next) {
    const double t_start = t_;
    // An untouched step advances by exactly dt_ — bit-identical to the
    // unguarded path, which (t_next - t_start) need not be at the ulp level.
    const bool whole_step = t_start == grid_time(step_index_);
    double h = whole_step ? dt_ : t_next - t_start;
    bool covers = true;  // current h spans all the way to t_next
    x_save_.assign(x_.begin(), x_.end());
    Diagnostic diag;
    bool accepted = false;
    while (!accepted) {
      advance(h);
      diag = {};
      // A sub-step covering the whole remainder lands exactly on the grid
      // point rather than on t_start + h, which can differ by an ulp.
      const double t_sub = covers ? t_next : t_start + h;
      if (guard_(t_sub, x_, diag)) {
        commit(t_sub);
        accepted = true;
        break;
      }
      // Rejected: roll back to the last accepted state and try a gentler step.
      x_.assign(x_save_.begin(), x_save_.end());
      kStepRetries.add();
      obs::trace_instant("fluid.step_retry", t_start * 1e6, h);
      if (++rejections > max_step_halvings_) {
        if (diag.component.empty()) diag.component = "DdeSolver";
        diag.last_good_time = t_start;
        diag.last_good_state = x_save_;
        throw InvariantViolation(std::move(diag));
      }
      h *= 0.5;
      covers = false;
    }
    if (!(t_ > t_start)) {
      // h underflowed below one ulp of t_: the guard keeps accepting steps
      // too small to advance time. Abort rather than spin forever.
      diag = Diagnostic::make("DdeSolver", "step_size", t_start, h,
                              "guarded sub-step too small to advance time");
      diag.last_good_time = t_start;
      diag.last_good_state = x_save_;
      throw InvariantViolation(std::move(diag));
    }
  }
  ++step_index_;
  if (rejections > 0) ++steps_retried_;
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
  // to an extra step.
  std::uint64_t k_end = step_index_;
  const double raw = (t_end - t0_) / dt_;
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
