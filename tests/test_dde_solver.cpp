#include "fluid/dde_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

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

TEST(History, PhysicalCompactionPreservesValues) {
  // Long-run path: once the logical start passes the compaction threshold
  // the buffers are physically erased; lookups must be unaffected.
  History h(1);
  for (int i = 0; i <= 10000; ++i) {
    double v = static_cast<double>(i);
    h.append(i * 1e-3, std::span<const double>(&v, 1));
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
  // Interior, exact-sample, and both clamped ends: values() must agree
  // bit-for-bit with the per-variable path.
  for (const double t : {-1.0, 0.0, 0.1, 0.25, 0.3, 0.62, 0.75, 0.9, 2.0}) {
    const std::span<const double> batch = h.values(t);
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

TEST(History, CompactionBoundaryStaysInterpolationExact) {
  // Drive the logical start past the physical-compaction threshold (4096)
  // and check that lookups just above t_keep return the same interpolated
  // values before and after the buffers are physically erased — i.e. the
  // straddling point survives compaction and the cursor cache is remapped
  // (or invalidated) rather than left pointing at shifted indices.
  History h(1);
  for (int i = 0; i <= 12000; ++i) {
    double v = 3.0 * i;
    h.append(i * 1e-3, std::span<const double>(&v, 1));
  }
  // Prime the cursor deep into the prefix that is about to be erased.
  EXPECT_DOUBLE_EQ(h.value(0, 1.0005), 3001.5);
  const double before_a = h.value(0, 7.0001);
  const double before_b = h.value(0, 7.0015);
  h.trim_before(7.0);  // start_ ≈ 6999 > 4096 and > size/2 → compacts
  EXPECT_DOUBLE_EQ(h.value(0, 7.0001), before_a);
  EXPECT_DOUBLE_EQ(h.value(0, 7.0015), before_b);
  EXPECT_DOUBLE_EQ(h.value(0, 11.9995), 3.0 * 11999 + 1.5);
  // Lookups below the kept window clamp to the new start.
  EXPECT_DOUBLE_EQ(h.value(0, 1.0), h.value(0, 6.999));
  // And the batch path agrees after compaction too.
  EXPECT_DOUBLE_EQ(h.values(7.0001)[0], before_a);
}

TEST(DdeSolver, GuardRetryRealignsToNominalGrid) {
  // Regression: a step rejected at h=dt and accepted at h=dt/2 used to
  // commit at t_start + dt/2 and return, permanently shifting every later
  // step (and CSV row) off the nominal grid. The guarded step must complete
  // the remainder of dt, so post-retry times realign to t0 + k*dt.
  DecaySystem sys(1.0);
  const double dt = 1e-3;
  DdeSolver solver(sys, {1.0}, 0.0, dt);
  int rejections = 0;
  solver.set_guard([&](double t, std::span<const double>, Diagnostic& diag) {
    if (rejections == 0 && t >= 5.0 * dt - 1e-12) {
      ++rejections;
      diag = Diagnostic::make("test", "x", t, 0.0, "injected rejection");
      return false;
    }
    return true;
  });
  for (int k = 1; k <= 10; ++k) {
    solver.step();
    EXPECT_DOUBLE_EQ(solver.time(), static_cast<double>(k) * dt)
        << "after step " << k;
  }
  EXPECT_EQ(rejections, 1);
  EXPECT_EQ(solver.steps_retried(), 1u);
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
  auto extend = [&](History& h, int from, int to) {
    for (int i = from; i <= to; ++i) {
      const double row[2] = {0.37 * i * i, -2.0 * i};
      h.append(i * 1e-3, row);
    }
  };
  extend(deep, 0, 1000);
  extend(ref, 0, 1000);
  deep.trim_before(0.9, 0.2);  // rows >= 0.9, deep var >= 0.2
  for (const double t : {0.2, 0.2004, 0.45, 0.5995, 0.731, 0.8999, 0.9,
                         0.9001, 0.95, 1.0}) {
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
  for (const double t : {0.5, 0.731, 0.9, 1.2504, 1.8999, 1.9, 1.95, 2.0}) {
    EXPECT_EQ(deep.value(0, t), ref.value(0, t)) << "t=" << t;
    EXPECT_EQ(deep.values(t, 0, 1)[0], ref.value(0, t)) << "t=" << t;
  }
  const std::vector<double> times = {0.55, 0.55, 1.89, 0.77, 1.95, 1.95};
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

}  // namespace
}  // namespace ecnd::fluid
