#include "fluid/dde_solver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fnv1a.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/timely_model.hpp"
#include "obs/metrics.hpp"

namespace ecnd::fluid {
namespace {

/// dx/dt = -k x(t): plain exponential decay (no delay used).
class DecaySystem final : public DdeSystem {
 public:
  explicit DecaySystem(double k) : k_(k) {}
  std::size_t dim() const override { return 1; }
  void rhs(double, std::span<const double> x, const History&,
           std::span<double> dxdt) const override {
    dxdt[0] = -k_ * x[0];
  }
  double max_delay() const override { return 1e-3; }

 private:
  double k_;
};

/// dx/dt = -k x(t - tau): the canonical delayed negative feedback; stable
/// iff k * tau < pi/2, oscillatory-divergent beyond.
class DelayedFeedback final : public DdeSystem {
 public:
  DelayedFeedback(double k, double tau) : k_(k), tau_(tau) {}
  std::size_t dim() const override { return 1; }
  void rhs(double t, std::span<const double>, const History& past,
           std::span<double> dxdt) const override {
    dxdt[0] = -k_ * past.value(0, t - tau_);
  }
  double max_delay() const override { return tau_; }

 private:
  double k_, tau_;
};

TEST(History, InterpolatesLinearly) {
  History h(1);
  double v0 = 0.0, v1 = 10.0;
  h.append(0.0, std::span<const double>(&v0, 1));
  h.append(1.0, std::span<const double>(&v1, 1));
  EXPECT_DOUBLE_EQ(h.value(0, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.value(0, 0.1), 1.0);
}

TEST(History, ClampsBeforeAndAfter) {
  History h(1);
  double v0 = 3.0, v1 = 7.0;
  h.append(1.0, std::span<const double>(&v0, 1));
  h.append(2.0, std::span<const double>(&v1, 1));
  EXPECT_DOUBLE_EQ(h.value(0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.value(0, 5.0), 7.0);
}

TEST(History, TrimKeepsRecentWindow) {
  History h(1);
  for (int i = 0; i <= 100; ++i) {
    double v = static_cast<double>(i);
    h.append(i * 0.01, std::span<const double>(&v, 1));
  }
  h.trim_before(0.5);
  // Recent values still exact.
  EXPECT_NEAR(h.value(0, 0.9), 90.0, 1e-9);
  EXPECT_NEAR(h.value(0, 0.6), 60.0, 1e-9);
}

TEST(DdeSolver, ExponentialDecayMatchesClosedForm) {
  DecaySystem sys(100.0);
  DdeSolver solver(sys, {1.0}, 0.0, 1e-4);
  solver.run_until(0.05, nullptr, 0.0);
  EXPECT_NEAR(solver.state()[0], std::exp(-100.0 * 0.05), 1e-6);
}

TEST(DdeSolver, Rk4ConvergenceIsHighOrder) {
  // Halving the step should shrink the error by ~16x (4th order).
  DecaySystem sys(50.0);
  auto error_for = [&](double dt) {
    DdeSolver solver(sys, {1.0}, 0.0, dt);
    solver.run_until(0.1, nullptr, 0.0);
    return std::abs(solver.state()[0] - std::exp(-5.0));
  };
  const double e1 = error_for(2e-3);
  const double e2 = error_for(1e-3);
  EXPECT_LT(e2, e1 / 8.0);
}

TEST(DdeSolver, DelayedFeedbackStableBelowCriticalGain) {
  // k*tau = 1.0 < pi/2: decays.
  DelayedFeedback sys(100.0, 0.01);
  DdeSolver solver(sys, {1.0}, 0.0, 1e-4);
  solver.run_until(1.0, nullptr, 0.0);
  EXPECT_LT(std::abs(solver.state()[0]), 0.05);
}

TEST(DdeSolver, DelayedFeedbackUnstableAboveCriticalGain) {
  // k*tau = 2.0 > pi/2: oscillates with growing amplitude.
  DelayedFeedback sys(200.0, 0.01);
  DdeSolver solver(sys, {1.0}, 0.0, 1e-4);
  solver.run_until(1.0, nullptr, 0.0);
  EXPECT_GT(std::abs(solver.state()[0]), 10.0);
}

TEST(DdeSolver, DelayedOscillationPeriodAtCriticalGain) {
  // At k*tau = pi/2 the solution oscillates with period 4*tau.
  const double tau = 0.01;
  DelayedFeedback sys(M_PI / 2.0 / tau, tau);
  DdeSolver solver(sys, {1.0}, 0.0, 1e-5);
  std::vector<double> zero_crossings;
  double prev = 1.0;
  solver.run_until(0.2, [&](double t, std::span<const double> x) {
    if (prev > 0.0 && x[0] <= 0.0) zero_crossings.push_back(t);
    prev = x[0];
  }, 1e-5);
  ASSERT_GE(zero_crossings.size(), 3u);
  const double period = zero_crossings[2] - zero_crossings[1];
  EXPECT_NEAR(period, 4.0 * tau, 0.002);
}

TEST(History, ValueAtExactSamplePointsAndPerVariable) {
  History h(2);
  const double a[2] = {1.0, -1.0};
  const double b[2] = {2.0, -2.0};
  const double c[2] = {4.0, -4.0};
  h.append(0.0, a);
  h.append(0.5, b);
  h.append(1.0, c);
  EXPECT_DOUBLE_EQ(h.value(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.value(0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.value(0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(h.value(1, 0.5), -2.0);
  EXPECT_DOUBLE_EQ(h.value(1, 0.75), -3.0);
}

TEST(History, TrimKeepsThePointStraddlingTKeep) {
  // Points at 0.0, 0.1, ..., 1.0; after trim_before(0.55) a lookup at 0.55
  // still needs the bracketing pair (0.5, 0.6), so 0.5 must survive.
  History h(1);
  for (int i = 0; i <= 10; ++i) {
    double v = static_cast<double>(i);
    h.append(i * 0.1, std::span<const double>(&v, 1));
  }
  h.trim_before(0.55);
  EXPECT_NEAR(h.value(0, 0.55), 5.5, 1e-9);
  EXPECT_NEAR(h.value(0, 0.5), 5.0, 1e-9);
  // Lookups older than the kept window clamp to the new start instead of
  // extrapolating from discarded data.
  EXPECT_NEAR(h.value(0, 0.0), 5.0, 1e-9);
}

TEST(History, TrimPastTheEndKeepsAtLeastTwoPoints) {
  History h(1);
  double v0 = 1.0, v1 = 2.0, v2 = 3.0;
  h.append(0.0, std::span<const double>(&v0, 1));
  h.append(1.0, std::span<const double>(&v1, 1));
  h.append(2.0, std::span<const double>(&v2, 1));
  h.trim_before(100.0);  // far beyond the last sample
  // The last two points survive, so interpolation still works.
  EXPECT_DOUBLE_EQ(h.value(0, 1.5), 2.5);
  EXPECT_DOUBLE_EQ(h.value(0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(h.value(0, 0.0), 2.0);  // clamped to the new start
}

TEST(History, RingWrapAroundPreservesValues) {
  // Long-run path: a trim every 10 samples keeps the last second (about
  // 1010 samples), so the ring settles at 1024 slots and its slots wrap
  // about ten times over 10001 samples; lookups must be unaffected.
  History h(1);
  for (int i = 0; i <= 10000; ++i) {
    double v = static_cast<double>(i);
    h.append(i * 1e-3, std::span<const double>(&v, 1));
    if (i % 10 == 0) h.trim_before(i * 1e-3 - 1.0);
  }
  h.trim_before(9.0);
  EXPECT_NEAR(h.value(0, 9.5), 9500.0, 1e-6);
  EXPECT_NEAR(h.value(0, 10.0), 10000.0, 1e-6);
  EXPECT_NEAR(h.value(0, 9.0005), 9000.5, 1e-6);
}

TEST(DdeSolver, ObserverSamplingInterval) {
  DecaySystem sys(1.0);
  DdeSolver solver(sys, {1.0}, 0.0, 1e-3);
  int samples = 0;
  solver.run_until(1.0, [&](double, std::span<const double>) { ++samples; }, 0.1);
  EXPECT_GE(samples, 10);
  EXPECT_LE(samples, 13);
}

TEST(DdeSolver, ClampIsApplied) {
  // A system pushed negative but clamped at zero.
  class Clamped final : public DdeSystem {
   public:
    std::size_t dim() const override { return 1; }
    void rhs(double, std::span<const double>, const History&,
             std::span<double> dxdt) const override {
      dxdt[0] = -100.0;
    }
    std::vector<StateBounds> bounds() const override {
      return {{0, 1, 0.0, 0.0, StateBounds::Rule::kFloor}};
    }
    double max_delay() const override { return 1e-3; }
  };
  Clamped sys;
  DdeSolver solver(sys, {1.0}, 0.0, 1e-3);
  solver.run_until(1.0, nullptr, 0.0);
  EXPECT_DOUBLE_EQ(solver.state()[0], 0.0);
}

TEST(History, BatchValuesMatchPerVariableLookups) {
  History h(3);
  const double rows[4][3] = {{1.0, 10.0, -5.0},
                             {2.0, 30.0, -6.0},
                             {8.0, 20.0, -9.0},
                             {4.0, 40.0, -1.0}};
  for (int i = 0; i < 4; ++i) h.append(i * 0.25, rows[i]);
  // Interior, exact-sample, and both clamped ends: the whole row from
  // values() must agree bit-for-bit with the per-variable path.
  for (const double t : {-1.0, 0.0, 0.1, 0.25, 0.3, 0.62, 0.75, 0.9, 2.0}) {
    const std::span<const double> batch = h.values(t, 0, h.dim());
    ASSERT_EQ(batch.size(), 3u);
    for (std::size_t v = 0; v < 3; ++v) {
      EXPECT_DOUBLE_EQ(batch[v], h.value(v, t)) << "t=" << t << " var=" << v;
    }
  }
}

TEST(History, CursorHandlesForwardWalksAndBackwardJumps) {
  // The lookup cursor assumes mostly forward motion; a backward jump (as in
  // TIMELY's per-flow tau* lanes) must fall back to binary search and still
  // interpolate exactly.
  History h(1);
  for (int i = 0; i <= 1000; ++i) {
    double v = 2.0 * i;
    h.append(i * 1e-3, std::span<const double>(&v, 1));
  }
  // Forward sweep primes the cursor near the end...
  for (int i = 1; i <= 999; ++i) {
    EXPECT_DOUBLE_EQ(h.value(0, i * 1e-3 + 5e-4), 2.0 * i + 1.0);
  }
  // ...then jump far back, far forward, and back again.
  EXPECT_DOUBLE_EQ(h.value(0, 0.0125), 25.0);
  EXPECT_DOUBLE_EQ(h.value(0, 0.9875), 1975.0);
  EXPECT_DOUBLE_EQ(h.value(0, 0.0005), 1.0);
}

TEST(History, RingWrapBoundaryStaysInterpolationExact) {
  // A trim every 10 samples keeps about 500, so the ring settles at 512
  // slots and wraps about 23 times over 12001 samples. A cursor primed on a
  // sample whose slot a newer sample later reuses must count as stale
  // rather than point at the newer sample, and a trim must keep the point
  // straddling t_keep.
  History h(1);
  const auto extend = [&h](int from, int to) {
    for (int i = from; i <= to; ++i) {
      double v = 3.0 * i;
      h.append(i * 1e-3, std::span<const double>(&v, 1));
      if (i % 10 == 0) h.trim_before(i * 1e-3 - 0.49);
    }
  };
  extend(0, 1200);
  // Prime the cursor on a sample whose slot is about to be reused.
  EXPECT_DOUBLE_EQ(h.value(0, 1.0005), 3001.5);
  extend(1201, 12000);
  const double before_a = h.value(0, 11.6001);
  const double before_b = h.value(0, 11.6015);
  EXPECT_NEAR(before_a, 3.0 * 11600 + 0.3, 1e-9);
  EXPECT_NEAR(before_b, 3.0 * 11601 + 1.5, 1e-9);
  h.trim_before(11.6);
  EXPECT_DOUBLE_EQ(h.value(0, 11.6001), before_a);
  EXPECT_DOUBLE_EQ(h.value(0, 11.6015), before_b);
  EXPECT_DOUBLE_EQ(h.value(0, 11.9995), 3.0 * 11999 + 1.5);
  // Lookups below the kept window clamp to the new start.
  EXPECT_DOUBLE_EQ(h.value(0, 1.0), h.value(0, 11.599));
  // And the batch path agrees after the trim too.
  EXPECT_DOUBLE_EQ(h.values(11.6001, 0, 1)[0], before_a);
}

/// value(0, t) over samples (ts, vs) by a linear scan, with History's
/// clamping and interpolation expression.
double linear_scan(const std::vector<double>& ts, const std::vector<double>& vs,
                   double t) {
  if (t <= ts.front()) return vs.front();
  if (t >= ts.back()) return vs.back();
  std::size_t hi = 0;
  while (ts[hi] < t) ++hi;
  const double span = ts[hi] - ts[hi - 1];
  if (span <= 0.0) return vs[hi];
  const double w = (t - ts[hi - 1]) / span;
  return vs[hi - 1] + w * (vs[hi] - vs[hi - 1]);
}

/// Appends samples (ts, vs) to a History, dropping about the first third
/// halfway through so the rest wrap into the freed slots, then checks
/// value() against linear_scan() on random queries (both clamped ends and
/// exact sample times) and on a forward sweep (the cursor walk).
void expect_brackets_match_linear_scan(std::vector<double> ts,
                                       std::vector<double> vs) {
  History h(1);
  const std::size_t half = ts.size() * 2 / 3;
  for (std::size_t i = 0; i < half; ++i) h.append(ts[i], {&vs[i], 1});
  const double cut = ts[half / 2] + 1e-9;
  h.trim_before(cut);
  for (std::size_t i = half; i < ts.size(); ++i) h.append(ts[i], {&vs[i], 1});
  // The trim kept the sample before the first one at or after `cut`.
  const auto kept =
      std::lower_bound(ts.begin(), ts.end(), cut) - ts.begin() - 1;
  ts.erase(ts.begin(), ts.begin() + kept);
  vs.erase(vs.begin(), vs.begin() + kept);

  std::mt19937_64 rng(20161212);
  std::uniform_real_distribution<double> anywhere(ts.front() - 1.0,
                                                  ts.back() + 1.0);
  for (int q = 0; q < 20000; ++q) {
    double t = anywhere(rng);
    if (q % 2 == 1) t = ts[rng() % ts.size()];  // exactly on a sample
    EXPECT_EQ(h.value(0, t), linear_scan(ts, vs, t)) << "t=" << t;
  }
  for (std::size_t i = 1; i + 1 < ts.size(); ++i) {
    const double t = 0.5 * (ts[i] + ts[i + 1]);
    EXPECT_EQ(h.value(0, t), linear_scan(ts, vs, t)) << "t=" << t;
  }
}

TEST(History, BracketMatchesLinearScanOnUnevenTimes) {
  // Every path that finds a bracket — the cursor walk, the index computed
  // from the even spacing and the binary search behind it — must land on
  // the first sample at or after t, as a linear scan does.
  std::vector<double> ts;
  std::vector<double> vs;
  // Geometric spacing (each gap 1% longer than the last) with repeated
  // times: the computed index is wrong almost everywhere.
  double t = 1.0;
  double gap = 1e-4;
  for (int i = 0; i < 1200; ++i) {
    ts.push_back(t);
    vs.push_back(100.0 * std::sin(0.05 * i));
    if (i % 37 == 5) {
      ts.push_back(t);
      vs.push_back(-vs.back());
    }
    t += gap;
    gap *= 1.01;
  }
  expect_brackets_match_linear_scan(ts, vs);

  // A solver-like grid t = k * dt with off-grid sub-step samples and a
  // repeated time: the computed index is mostly right.
  ts.clear();
  vs.clear();
  const double dt = 3.5e-7;
  for (int k = 0; k < 1500; ++k) {
    ts.push_back(k * dt);
    vs.push_back(std::cos(0.01 * k) + 1e-3 * k);
    if (k % 211 == 17) {
      ts.push_back((k + 0.5) * dt);
      vs.push_back(vs.back() + 0.25);
    }
    if (k == 1300) {
      ts.push_back(ts.back());
      vs.push_back(vs.back() - 0.5);
    }
  }
  expect_brackets_match_linear_scan(ts, vs);
}

TEST(History, AppendRejectsASampleEarlierThanTheNewest) {
  History h(1);
  const double v = 1.0;
  h.append(1.0, {&v, 1});
  h.append(1.0, {&v, 1});  // a repeated time is in order
  try {
    h.append(0.5, {&v, 1});
    FAIL() << "an out-of-order sample was accepted";
  } catch (const InvariantViolation& e) {
    // At the newest sample's time 1, t = 0.5 arrived.
    EXPECT_EQ(e.diagnostic().component, "History");
    EXPECT_EQ(e.diagnostic().time, 1.0);
    EXPECT_EQ(e.diagnostic().value, 0.5);
    const std::string what = e.what();
    EXPECT_NE(what.find("sample at t=0.5 s"), std::string::npos) << what;
    EXPECT_NE(what.find("newest sample at t=1 s"), std::string::npos) << what;
  }
  EXPECT_THROW(h.append(std::nan(""), {&v, 1}), InvariantViolation);
  // Neither rejected sample entered the history.
  EXPECT_EQ(h.last_time(), 1.0);
  EXPECT_EQ(h.value(0, 5.0), 1.0);
}

TEST(History, NanLookupTimeClampsToTheOldestSample) {
  // A NaN time fails every ordered comparison. It must clamp like a time
  // before the window: a search would return the oldest live sample as the
  // bracket's upper end and read the slot before it, which lies outside the
  // ring whenever the oldest sample sits in slot 0.
  const double nan = std::nan("");
  const auto append = [](History& h, double t) {
    const std::vector<double> row = {t, -t};
    h.append(t, row);
  };
  History h(2);
  for (int i = 0; i < 4; ++i) append(h, 0.125 * i);  // slots 0..3, full
  EXPECT_EQ(h.value(0, nan), 0.0);
  EXPECT_EQ(h.values(nan, 0, 2)[1], 0.0);
  std::vector<double> out(2);
  h.values_at(1, std::vector<double>{nan, nan}, out);
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0}));
  // Keep samples 2 and 3, append 4 and 5 into slots 0 and 1, then keep 4
  // and 5: the oldest sample is back in slot 0, one lap later.
  h.trim_before(0.3);
  append(h, 0.5);
  append(h, 0.625);
  h.trim_before(0.55);
  ASSERT_EQ(h.first_time(), 0.5);
  EXPECT_EQ(h.value(0, nan), 0.5);
  EXPECT_EQ(h.values(nan, 0, 2)[1], -0.5);

  // With split retention a NaN reads the deep ring's oldest sample for the
  // deep variable and the row ring's for the rest.
  History split(2);
  split.set_deep_retention(0, 1);
  for (int i = 0; i < 6; ++i) append(split, 0.125 * i);
  split.trim_before(0.4, 0.0);  // samples 0..2 move to the deep ring
  ASSERT_EQ(split.first_time(), 0.375);
  EXPECT_EQ(split.value(0, nan), 0.0);
  EXPECT_EQ(split.value(1, nan), -0.375);
  const auto both = split.values(nan, 0, 2);
  EXPECT_EQ(both[0], 0.0);
  EXPECT_EQ(both[1], -0.375);
}

TEST(DdeSolver, LongHorizonStepAndSampleCountsExact) {
  // Regression: run_until's old `t_ < t_end - 1e-15` loop and the observer's
  // `next_sample += interval` accumulation both drifted; over 1e7 steps the
  // run could gain/lose steps and samples. With index-based time the counts
  // are exact for any horizon.
  DecaySystem sys(1e-4);  // negligible decay; we only count
  DdeSolver solver(sys, {1.0}, 0.0, 1e-3);
  std::uint64_t rows = 0;
  double last_t = -1.0;
  double min_spacing = 1e300, max_spacing = 0.0;
  solver.run_until(
      1e4,  // 1e7 steps of dt=1e-3
      [&](double t, std::span<const double>) {
        if (rows > 0 && t > last_t) {
          min_spacing = std::min(min_spacing, t - last_t);
          max_spacing = std::max(max_spacing, t - last_t);
        }
        last_t = t;
        ++rows;
      },
      1.0);
  // Samples at t = 0, 1, ..., 9999 inside the loop plus the final state at
  // t_end: exactly 10001 rows, evenly spaced.
  EXPECT_EQ(rows, 10001u);
  EXPECT_NEAR(solver.time(), 1e4, 1e-6);
  EXPECT_NEAR(min_spacing, 1.0, 1e-9);
  EXPECT_NEAR(max_spacing, 1.0, 1e-9);
  // A horizon of 2^53 steps or more has no exact step count (and its cast
  // to an integer count would be undefined): it throws before any step.
  const double t_before = solver.time();
  EXPECT_THROW(solver.run_until(1e300, nullptr, 0.0), InvariantViolation);
  EXPECT_EQ(solver.time(), t_before);
}

TEST(History, RangedValuesMatchPerVariableLookups) {
  History h(4);
  const double rows[4][4] = {{1.0, 10.0, -5.0, 2.5},
                             {2.0, 30.0, -6.0, 7.5},
                             {8.0, 20.0, -9.0, 1.5},
                             {4.0, 40.0, -1.0, 9.5}};
  for (int i = 0; i < 4; ++i) h.append(i * 0.25, rows[i]);
  // Every contiguous sub-range, at interior, exact-sample, and clamped
  // times: the ranged overload must agree bit-for-bit with value().
  for (const double t : {-1.0, 0.0, 0.1, 0.25, 0.3, 0.62, 0.75, 0.9, 2.0}) {
    for (std::size_t begin = 0; begin < 4; ++begin) {
      for (std::size_t count = 1; begin + count <= 4; ++count) {
        const std::span<const double> slice = h.values(t, begin, count);
        ASSERT_EQ(slice.size(), count);
        for (std::size_t j = 0; j < count; ++j) {
          EXPECT_EQ(slice[j], h.value(begin + j, t))
              << "t=" << t << " begin=" << begin << " j=" << j;
        }
      }
    }
  }
}

TEST(History, ValuesAtMatchesPerQueryLookups) {
  History h(2);
  for (int i = 0; i <= 200; ++i) {
    const double row[2] = {0.3 * i, 100.0 - 0.7 * i};
    h.append(i * 1e-3, row);
  }
  // Unsorted queries with duplicates (the TIMELY symmetric-run pattern:
  // many flows asking for the same delayed time) and clamped ends. The
  // batch must agree bit-for-bit with one value() per query.
  const std::vector<double> times = {0.05,  0.0503, 0.0503, 0.0503, 0.12,
                                     0.003, 0.003,  0.1999, 0.25,   -0.1,
                                     0.1,   0.1,    0.0999, 0.1};
  std::vector<double> out(times.size());
  for (std::size_t var = 0; var < 2; ++var) {
    h.values_at(var, times, out);
    for (std::size_t i = 0; i < times.size(); ++i) {
      EXPECT_EQ(out[i], h.value(var, times[i])) << "var=" << var << " i=" << i;
    }
  }
}

TEST(History, DeepRetentionMatchesUntrimmedReference) {
  // Two identical histories; one keeps full rows only for a recent window
  // and var 0 in the deep side store. Deep-covered lookups — interior,
  // exactly on a sample, exactly on the rows boundary, and inside the
  // bridge between the deep store and the first surviving row — must be
  // bit-identical to the untrimmed reference.
  History deep(2);
  deep.set_deep_retention(0, 1);
  History ref(2);
  // Rows on a 1 ms grid plus the off-grid samples a sub-stepping writer
  // leaves: a half-step sample after every fifth row, and a second sample
  // at the repeated time t = 0.6.
  auto extend = [&](History& h, int from, int to) {
    for (int i = from; i <= to; ++i) {
      const double row[2] = {0.37 * i * i, -2.0 * i};
      h.append(i * 1e-3, row);
      if (i % 5 == 3) {
        const double half[2] = {0.37 * i * (i + 1), 1.0 - 2.0 * i};
        h.append((i + 0.5) * 1e-3, half);
      }
      if (i == 600) {
        const double again[2] = {row[0] + 5.0, row[1] - 5.0};
        h.append(i * 1e-3, again);
      }
    }
  };
  extend(deep, 0, 1000);
  extend(ref, 0, 1000);
  deep.trim_before(0.9, 0.2);  // rows >= 0.9, deep var >= 0.2
  // The deep store ends on the half-step sample at t = 0.8985, so 0.8987
  // bridges from it to the first surviving row.
  for (const double t : {0.2, 0.2004, 0.45, 0.5995, 0.6, 0.6003, 0.731,
                         0.7335, 0.7337, 0.8987, 0.8999, 0.9, 0.9001, 0.95,
                         1.0}) {
    EXPECT_EQ(deep.value(0, t), ref.value(0, t)) << "t=" << t;
  }
  // Below the deep window the lookup clamps to the kept deep start (the
  // bracket sample at t = 0.199).
  EXPECT_EQ(deep.value(0, 0.0), deep.value(0, 0.199));
  // The rows-only variable behaves like a plain trimmed history: clamped to
  // the first surviving row (t = 0.899).
  EXPECT_EQ(deep.value(1, 0.95), ref.value(1, 0.95));
  EXPECT_EQ(deep.value(1, 0.0), deep.value(1, 0.899));

  // A second trim accumulates more rows into the side store; everything
  // above the deep keep-point must still match, through the batch paths too.
  extend(deep, 1001, 2000);
  extend(ref, 1001, 2000);
  deep.trim_before(1.9, 0.5);
  for (const double t : {0.5, 0.6, 0.731, 0.8987, 0.9, 1.2504, 1.2535,
                         1.8999, 1.9, 1.95, 2.0}) {
    EXPECT_EQ(deep.value(0, t), ref.value(0, t)) << "t=" << t;
    EXPECT_EQ(deep.values(t, 0, 1)[0], ref.value(0, t)) << "t=" << t;
  }
  const std::vector<double> times = {0.55, 0.55, 1.89, 0.6, 0.77, 1.95, 1.95};
  std::vector<double> out(times.size());
  deep.values_at(0, times, out);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(out[i], ref.value(0, times[i])) << "i=" << i;
  }
}

/// The DelayedFeedback dynamics plus an undelayed integrator lane, with the
/// delayed variable flagged for deep retention: trajectories must match the
/// full-retention twin bit for bit even after the solver starts trimming
/// rows at the (much shorter) max_row_delay horizon.
class DeepDelayedFeedback final : public DdeSystem {
 public:
  DeepDelayedFeedback(double k, double tau, bool deep)
      : k_(k), tau_(tau), deep_(deep) {}
  std::size_t dim() const override { return 2; }
  void rhs(double t, std::span<const double> x, const History& past,
           std::span<double> dxdt) const override {
    dxdt[0] = -k_ * past.value(0, t - tau_);
    dxdt[1] = x[0];
  }
  double max_delay() const override { return tau_; }
  double max_row_delay() const override { return deep_ ? 0.0 : tau_; }
  std::pair<std::size_t, std::size_t> deep_vars() const override {
    return {0, 1};
  }

 private:
  double k_, tau_;
  bool deep_;
};

TEST(DdeSolver, DeepRetentionTrajectoryBitIdentical) {
  DeepDelayedFeedback full(100.0, 0.01, false);
  DeepDelayedFeedback deep(100.0, 0.01, true);
  DdeSolver sf(full, {1.0, 0.0}, 0.0, 1e-4);
  DdeSolver sd(deep, {1.0, 0.0}, 0.0, 1e-4);
  std::vector<double> traj_full, traj_deep;
  const auto record = [](std::vector<double>& sink) {
    return [&sink](double, std::span<const double> x) {
      sink.push_back(x[0]);
      sink.push_back(x[1]);
    };
  };
  sf.run_until(2.0, record(traj_full), 1e-3);
  sd.run_until(2.0, record(traj_deep), 1e-3);
  ASSERT_EQ(traj_full.size(), traj_deep.size());
  for (std::size_t i = 0; i < traj_full.size(); ++i) {
    EXPECT_EQ(traj_full[i], traj_deep[i]) << "sample " << i;
  }
  EXPECT_EQ(sf.state()[0], sd.state()[0]);
  EXPECT_EQ(sf.state()[1], sd.state()[1]);
}

// ---------------------------------------------------------------------------
// HistoryPins: long runs of the paper's two models, pinned bit for bit.
// Each run is long enough for every history store to turn over its window
// many times (the storage before the history ring compacted its dead prefix
// in both stores during these runs). Any change to how History stores or
// finds samples that is not bit-neutral moves a digest or a count.

/// Reads of `h` at the solver's time t: the queue (variable 0, deep-retained
/// for TIMELY) and `rows_var` (rows only) at on-grid and off-grid offsets
/// that span the row window, the bridge, the deep store and both clamped
/// ends; whole-row values() blocks; and one values_at() batch with repeats.
void probe(const History& h, double t, double dt, std::size_t rows_var,
           std::vector<double>& out) {
  for (const double back : {-1.0, 0.0, 0.5, 1.0, 3.0, 9.25, 17.0, 31.0, 40.5,
                            1e3, 2.5e4, 8.4e4, 8.6e4, 1e6}) {
    for (const double frac : {0.0, 0.37}) {
      const double q = t - (back + frac) * dt;
      out.push_back(h.value(0, q));
      out.push_back(h.value(rows_var, q));
    }
  }
  for (const double back : {0.5, 2.0, 12.0, 5e4, 1e6}) {
    const std::span<const double> row = h.values(t - back * dt, 0, h.dim());
    out.insert(out.end(), row.begin(), row.end());
  }
  const std::vector<double> times = {t - 7.5 * dt, t - 7.5 * dt, t - 2e4 * dt,
                                     t - 7.5 * dt, t - 3.1 * dt};
  std::vector<double> vals(times.size());
  h.values_at(0, times, vals);
  out.insert(out.end(), vals.begin(), vals.end());
}

std::uint64_t digest(const std::vector<double>& x) {
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(x.data()),
                                  x.size() * sizeof(double)));
}

/// The lookup counters a pinned run armed and counted.
struct LookupCounts {
  std::uint64_t delayed = 0;
  std::uint64_t clamped = 0;
  std::uint64_t hint_hits = 0;
};

/// The lookup counters since the last obs::reset() (all zero when the
/// observability layer is compiled out).
LookupCounts armed_lookup_counts() {
  LookupCounts counts;
#if !defined(ECND_OBS_DISABLED)
  const std::vector<obs::detail::MetricRow> rows = obs::detail::metric_rows();
  const std::vector<std::uint64_t> values = obs::detail::task_scalars();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].name == "fluid.delayed_lookups") counts.delayed = values[i];
    if (rows[i].name == "fluid.lookup_clamped") counts.clamped = values[i];
    if (rows[i].name == "fluid.lookup_hint_hits") counts.hint_hits = values[i];
  }
#endif
  return counts;
}

struct PinnedRun {
  std::uint64_t state_digest = 0;  // end state
  std::uint64_t probe_digest = 0;  // every probe() after every segment
  LookupCounts counts;
};

/// Runs `model` from x0 through each segment end, probing after each, with
/// the lookup counters armed from zero for the whole run.
PinnedRun run_pinned(const FluidModel& model, std::vector<double> x0,
                     std::size_t rows_var, const std::vector<double>& ends) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::reset();
  const double dt = model.suggested_dt();
  DdeSolver solver(model, std::move(x0), 0.0, dt);
  std::vector<double> probes;
  for (const double end : ends) {
    solver.run_until(end, nullptr, 0.0);
    probe(solver.history(), solver.time(), dt, rows_var, probes);
  }
  PinnedRun run;
  const std::span<const double> x = solver.state();
  run.state_digest = digest(std::vector<double>(x.begin(), x.end()));
  run.probe_digest = digest(probes);
  run.counts = armed_lookup_counts();
  obs::reset();
  obs::set_metrics_enabled(was_enabled);
  return run;
}

void expect_counts(const LookupCounts& got, const LookupCounts& want) {
#if !defined(ECND_OBS_DISABLED)
  EXPECT_EQ(got.delayed, want.delayed);
  EXPECT_EQ(got.clamped, want.clamped);
  EXPECT_EQ(got.hint_hits, want.hint_hits);
#else
  (void)got;
  (void)want;
#endif
}

TEST(HistoryPins, LongRunsMatchParent) {
  {
    // Patched TIMELY, 3 flows, 100 us feedback jitter: the queue's deep
    // store spans about 85k samples and jittered lookups jump backward.
    TimelyFluidParams p = patched_timely_defaults();
    p.num_flows = 3;
    p.feedback_jitter = JitterProcess(100e-6, 20e-6, 4242);
    const PatchedTimelyFluidModel m(p);
    std::vector<double> x0 = m.initial_state();
    x0[m.queue_index()] = 200.0;
    for (int i = 0; i < 3; ++i) {
      x0[m.rate_index(i)] = m.capacity_pps() / 3.0 * (0.8 + 0.2 * i);
    }
    const double dt = m.suggested_dt();
    const PinnedRun run = run_pinned(m, std::move(x0), m.rate_index(1),
                                     {0.005, 0.03 + 45 * dt, 0.062, 0.078});
    EXPECT_EQ(run.state_digest, 7988859795569755624u);
    EXPECT_EQ(run.probe_digest, 6526502245364388438u);
    expect_counts(run.counts, {3565992, 11019, 2384613});
  }
  {
    // DCQCN, 3 flows from inside the marking band: full rows only.
    DcqcnFluidParams p;
    p.num_flows = 3;
    const DcqcnFluidModel m(p);
    std::vector<double> x0 = m.initial_state();
    x0[m.queue_index()] = 100.0;
    for (int i = 0; i < 3; ++i) {
      x0[m.rate_index(i)] = m.capacity_pps() / 3.0 * (0.7 + 0.3 * i);
    }
    const double dt = m.suggested_dt();
    const PinnedRun run = run_pinned(m, std::move(x0), m.rate_index(1),
                                     {0.001, 5e-3 + 45 * dt, 0.009, 0.012});
    EXPECT_EQ(run.state_digest, 518816728635436437u);
    EXPECT_EQ(run.probe_digest, 18172635688418073996u);
    // probe()'s one values_at() batch starts on a cold lane cursor.
    expect_counts(run.counts, {192264, 190, 191798});
  }
}

TEST(History, EachLookupLaneKeepsItsCursor) {
  // Patched TIMELY's Equation 22 reads the delayed queue at t - tau'
  // (value()) and, per flow, a further tau* of about 70 samples back
  // (values_at()), alternately and at the RK4 stage times t, t + dt/2,
  // t + dt/2, t + dt. Each lane keeps its own cursor, so every read after
  // each lane's first is a cursor walk; one shared cursor would jump 70
  // samples back and forth and miss almost every time. The queue is
  // deep-retained, as TIMELY's is, and both lanes read from the row ring in
  // one pass and from the deep ring in the other.
  const double dt = 1e-6;
  const double tau_prime = 12.25 * dt;
  const double tau_star = 70.5 * dt;
  for (const double rows_back : {400.0, 1.0}) {
    History h(3);
    h.set_deep_retention(0, 1);
    History ref(3);  // untrimmed and never read: copied cold for each check
    const auto append = [&](int i) {
      const double row[3] = {100.0 + 40.0 * std::sin(0.05 * i), 1.0 * i, -0.5 * i};
      h.append(i * dt, row);
      ref.append(i * dt, row);
      h.trim_before((i - rows_back) * dt, (i - 400.0) * dt);
    };
    int k = 0;
    for (; k <= 500; ++k) append(k);

    const bool was_enabled = obs::metrics_enabled();
    obs::set_metrics_enabled(true);
    obs::reset();
    std::vector<std::pair<double, double>> reads;  // (t, value read)
    for (int step = 0; step < 200; ++step, ++k) {
      const double t = (k - 1) * dt;  // the newest sample
      for (const double stage : {t, t + 0.5 * dt, t + 0.5 * dt, t + dt}) {
        const double recent = stage - tau_prime;
        reads.emplace_back(recent, h.value(0, recent));
        const double times[2] = {recent - tau_star, recent - tau_star};
        double out[2];
        h.values_at(0, times, out);
        reads.emplace_back(times[0], out[0]);
        reads.emplace_back(times[1], out[1]);
      }
      append(k);
    }
    const LookupCounts counts = armed_lookup_counts();
    obs::reset();
    obs::set_metrics_enabled(was_enabled);

    for (const auto& [t, v] : reads) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
                std::bit_cast<std::uint64_t>(History(ref).value(0, t)))
          << "rows_back=" << rows_back << " t=" << t;
    }
    const std::uint64_t n = reads.size();
    expect_counts(counts, {n, 0, n - 2});
  }
}

}  // namespace
}  // namespace ecnd::fluid
