// Derived-observable analyzers (obs/analyzers.hpp) on synthetic signals with
// closed-form answers: a pure sine has a known amplitude and period, a step
// with exponential decay has a known settling time and overshoot, and a
// two-flow rate ramp has a Jain index computable by hand per window.

#include "obs/analyzers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/timeseries.hpp"

namespace ecnd {
namespace {

constexpr double kPi = 3.14159265358979323846;

// --- oscillation: pure sine ------------------------------------------------

TimeSeries sine_series(double amplitude, double period, double offset,
                       double duration, double dt) {
  // Integer-stepped grid: accumulating t += dt drifts past `duration` and
  // makes windowed replays drop the final sample.
  TimeSeries ts("sine");
  const int n = static_cast<int>(std::lround(duration / dt));
  for (int i = 0; i <= n; ++i) {
    const double t = i * dt;
    ts.push(t, offset + amplitude * std::sin(2.0 * kPi * t / period));
  }
  return ts;
}

TEST(OscillationProbe, SineAmplitudeAndPeriod) {
  const double amplitude = 3.0, period = 0.02, offset = 10.0;
  const TimeSeries ts = sine_series(amplitude, period, offset, 0.1, 1e-4);

  const auto osc = obs::oscillation(ts, 0.0, 0.1);
  // Five full cycles: peak-to-peak 2A, dominant period T.
  EXPECT_NEAR(osc.peak_to_peak, 2.0 * amplitude, 0.01 * amplitude);
  EXPECT_NEAR(osc.period, period, 0.02 * period);
  // 10 zero crossings of the reference in 5 cycles.
  EXPECT_EQ(osc.crossings, 10);
}

TEST(OscillationProbe, ExplicitReferenceMatchesDefaultMean) {
  // A cosine starts a full amplitude away from the reference, so the crossing
  // detector is insensitive to the ulp-level error in the estimated
  // time-weighted mean (a sine starting exactly ON the reference is not).
  TimeSeries ts("cosine");
  for (int i = 0; i <= 1000; ++i) {
    const double t = i * 5e-5;  // 5 full cycles of period 0.01
    ts.push(t, 5.0 + std::cos(2.0 * kPi * t / 0.01));
  }
  const auto by_mean = obs::oscillation(ts, 0.0, 1.0);
  const auto by_ref = obs::oscillation(ts, 0.0, 1.0, 5.0);
  EXPECT_EQ(by_mean.crossings, by_ref.crossings);
  EXPECT_NEAR(by_mean.period, by_ref.period, 1e-6);
  EXPECT_NEAR(by_mean.period, 0.01, 1e-4);
}

TEST(OscillationProbe, HysteresisRejectsRipple) {
  // 2 KB ripple around 100 with one genuine 20-unit swing: with hysteresis
  // above the ripple amplitude only the big swing's crossings register.
  TimeSeries ts("ripple");
  for (int i = 0; i <= 1000; ++i) {
    const double t = i * 1e-4;
    double v = 100.0 + 0.5 * std::sin(2.0 * kPi * t / 1e-3);
    if (t > 0.04 && t < 0.06) v += 20.0 * std::sin(2.0 * kPi * (t - 0.04) / 0.02);
    ts.push(t, v);
  }
  const auto noisy = obs::oscillation(ts, 0.0, 0.1, 100.0, 0.0);
  const auto filtered = obs::oscillation(ts, 0.0, 0.1, 100.0, 2.0);
  EXPECT_GT(noisy.crossings, 50);
  EXPECT_LE(filtered.crossings, 4);
  EXPECT_NEAR(filtered.peak_to_peak, 40.0, 1.5);
}

TEST(OscillationProbe, ConstantSignalHasNoOscillation) {
  TimeSeries ts("flat");
  for (int i = 0; i < 100; ++i) ts.push(i * 1e-3, 42.0);
  const auto osc = obs::oscillation(ts, 0.0, 0.1);
  EXPECT_EQ(osc.crossings, 0);
  EXPECT_EQ(osc.period, 0.0);
  EXPECT_EQ(osc.peak_to_peak, 0.0);
}

// --- settling_time: step + exponential decay --------------------------------

TimeSeries decay_series(double start, double target, double tau,
                        double duration, double dt) {
  TimeSeries ts("decay");
  const int n = static_cast<int>(std::lround(duration / dt));
  for (int i = 0; i <= n; ++i) {
    const double t = i * dt;
    ts.push(t, target + (start - target) * std::exp(-t / tau));
  }
  return ts;
}

TEST(SettlingTime, ExponentialDecayClosedForm) {
  // v(t) = 100 e^{-t/tau} toward 0: |v| <= eps at t = tau * ln(100/eps).
  const double tau = 0.01, eps = 5.0;
  const TimeSeries ts = decay_series(100.0, 0.0, tau, 0.1, 1e-5);
  obs::SettlingParams p;
  p.target = 0.0;
  p.epsilon = eps;
  const auto r = obs::settling_time(ts, p, 0.0, 0.1);
  ASSERT_TRUE(r.settled);
  EXPECT_NEAR(r.settle_t, tau * std::log(100.0 / eps), 1e-4);
}

TEST(SettlingTime, MinDwellRejectsLateEntry) {
  // Enters the band only in the last 10% of the run: with min_dwell above
  // that, the run must not count as settled.
  const TimeSeries ts = decay_series(100.0, 0.0, 0.04, 0.1, 1e-5);
  obs::SettlingParams p;
  p.target = 0.0;
  p.epsilon = 100.0 * std::exp(-0.095 / 0.04);  // enters band at t=0.095
  p.min_dwell = 0.02;
  const auto r = obs::settling_time(ts, p, 0.0, 0.1);
  EXPECT_FALSE(r.settled);
}

TEST(SettlingTime, ReEntryResetsTheClock) {
  // In band, out briefly, back in: settle_t must be the *final* entry.
  TimeSeries ts("bounce");
  auto seg = [&](double t0, double t1, double v) {
    for (double t = t0; t < t1; t += 1e-3) ts.push(t, v);
  };
  seg(0.0, 0.1, 1.0);    // inside (target 1, eps 0.5)
  seg(0.1, 0.15, 3.0);   // excursion out
  seg(0.15, 0.3, 1.0);   // back inside until the end
  obs::SettlingParams p;
  p.target = 1.0;
  p.epsilon = 0.5;
  const auto r = obs::settling_time(ts, p, 0.0, 0.3);
  ASSERT_TRUE(r.settled);
  EXPECT_GT(r.settle_t, 0.1);
  EXPECT_LT(r.settle_t, 0.16);
}

TEST(SettlingTime, NeverInBand) {
  const TimeSeries ts = decay_series(100.0, 0.0, 1.0, 0.05, 1e-3);  // slow
  obs::SettlingParams p;
  p.target = 0.0;
  p.epsilon = 1.0;
  const auto r = obs::settling_time(ts, p, 0.0, 0.05);
  EXPECT_FALSE(r.settled);
}

// --- overshoot: step response -----------------------------------------------

TEST(Overshoot, PeakAndTimeAboveClosedForm) {
  // Triangle: rises 0 -> 20 over [0, 0.1], falls back to 0 over [0.1, 0.2].
  // Against target 10: peak excursion 10 (at t=0.1), above target for half
  // the span (crossings at t=0.05 and t=0.15).
  TimeSeries ts("triangle");
  for (int i = 0; i <= 200; ++i) {
    const double t = i * 1e-3;
    ts.push(t, t <= 0.1 ? 200.0 * t : 200.0 * (0.2 - t));
  }
  const auto r = obs::overshoot(ts, 10.0, 0.0, 0.3);
  EXPECT_NEAR(r.max_excursion, 10.0, 1e-9);
  EXPECT_NEAR(r.time_above_fraction, 0.5, 1e-9);
}

TEST(Overshoot, NeverAboveTarget) {
  const TimeSeries ts = decay_series(5.0, 0.0, 0.01, 0.1, 1e-3);
  const auto r = obs::overshoot(ts, 10.0, 0.0, 0.1);
  EXPECT_EQ(r.max_excursion, 0.0);
  EXPECT_EQ(r.time_above_fraction, 0.0);
}

// --- windowed_jain: two-flow ramp -------------------------------------------

// Two flows ramping in opposite directions across [0, 1].
struct Ramps {
  TimeSeries up{"up"}, down{"down"};
  explicit Ramps(double step) {
    const int n = static_cast<int>(std::lround(1.0 / step));
    for (int i = 0; i <= n; ++i) {
      const double t = i * step;
      up.push(t, 10.0 * t);
      down.push(t, 10.0 * (1.0 - t));
    }
  }
};

TEST(WindowedFairness, TwoFlowRampClosedForm) {
  // flow0 ramps 0 -> 10 over [0,1]; flow1 ramps 10 -> 0. In window
  // [0, 0.25] the time-weighted means are 1.25 and 8.75: Jain =
  // (10)^2 / (2 * (1.25^2 + 8.75^2)) = 100 / 156.25 = 0.64, and so for the
  // mirrored last window. The middle windows are fairer: means 3.75 and
  // 6.25 give 100 / 106.25 = 16/17.
  const Ramps r(1e-3);
  const auto worst =
      obs::windowed_jain({&r.up, &r.down}, 0.25, 1e-3, 0.0, 1.0);
  ASSERT_TRUE(worst.has_value());
  EXPECT_NEAR(*worst, 0.64, 1e-3);
  const auto middle =
      obs::windowed_jain({&r.up, &r.down}, 0.25, 1e-3, 0.25, 0.75);
  ASSERT_TRUE(middle.has_value());
  EXPECT_NEAR(*middle, 16.0 / 17.0, 1e-3);
}

TEST(WindowedFairness, OfflineWindowedJainMatchesOnline) {
  // The ramps are linear, so flows sampled every 0.125 s interpolate to the
  // same uniform grid as flows sampled every 1 ms.
  const Ramps coarse(0.125), fine(1e-3);
  const auto a =
      obs::windowed_jain({&coarse.up, &coarse.down}, 0.25, 1e-3, 0.0, 1.0);
  const auto b =
      obs::windowed_jain({&fine.up, &fine.down}, 0.25, 1e-3, 0.0, 1.0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NEAR(*a, *b, 1e-12);
  EXPECT_NEAR(*a, 0.64, 1e-3);
}

TEST(WindowedFairness, AllZeroWindowContributesNoIndex) {
  // Both flows idle: no window has a fairness index.
  TimeSeries idle("idle");
  idle.push(0.0, 0.0);
  idle.push(0.1, 0.0);
  EXPECT_FALSE(
      obs::windowed_jain({&idle, &idle}, 0.1, 1e-3, 0.0, 0.1).has_value());
  // An idle first window is skipped, not scored 0: the equal rates after it
  // are perfectly fair.
  TimeSeries late("late");
  late.push(0.0, 0.0);
  late.push(0.1, 0.0);
  late.push(0.1, 5.0);
  late.push(0.2, 5.0);
  const auto worst =
      obs::windowed_jain({&late, &late}, 0.1, 1e-3, 0.0, 0.2);
  ASSERT_TRUE(worst.has_value());
  EXPECT_NEAR(*worst, 1.0, 1e-12);
}

TEST(WindowedFairness, PartialTrailingWindowFlushedByFinish) {
  // A window longer than the data: the one partial window still counts.
  TimeSeries f0("f0"), f1("f1");
  for (const double t : {0.0, 0.5}) {
    f0.push(t, 4.0);
    f1.push(t, 6.0);
  }
  const auto worst = obs::windowed_jain({&f0, &f1}, 1.0, 0.1, 0.0, 0.5);
  ASSERT_TRUE(worst.has_value());
  // Jain(4, 6) = 100 / (2 * 52) = 0.9615...
  EXPECT_NEAR(*worst, 100.0 / 104.0, 1e-9);
}

TEST(WindowedFairness, RejectsReversedOrNonFiniteBounds) {
  // A reversed or non-finite span would reach the step count's conversion
  // to size_t, which is undefined for a negative or NaN value.
  TimeSeries f("f");
  f.push(0.0, 1.0);
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [t0, t1] : {std::pair{0.3, 0.2}, std::pair{nan, 0.3},
                               std::pair{0.2, nan}, std::pair{0.2, inf},
                               std::pair{-inf, 0.3}}) {
    EXPECT_THROW(obs::windowed_jain({&f}, 0.01, 1e-4, t0, t1),
                 std::invalid_argument)
        << t0 << ", " << t1;
  }
  EXPECT_THROW(obs::windowed_jain({&f}, 0.01, 0.0, 0.2, 0.3),
               std::invalid_argument);
  EXPECT_THROW(obs::windowed_jain({&f}, 0.0, 1e-4, 0.2, 0.3),
               std::invalid_argument);
  // A window below the spacing of doubles at a bound would never move the
  // open window's start: 1e-11 against a spacing of 1.2e-10 at 1e6, and
  // half a spacing on an odd/even pair of neighbours, where t1 + window
  // alone does move t1 but the tie at the even neighbour rounds back.
  TimeSeries g("g");
  g.push(1e6, 1.0);
  g.push(1e6 + 1e-6, 2.0);
  EXPECT_THROW(obs::windowed_jain({&f, &g}, 1e-11, 1e-7, 1e6, 1e6 + 1e-6),
               std::invalid_argument);
  const double u = 0x1p-52;
  EXPECT_THROW(obs::windowed_jain({&f}, u / 2, u, 1.0 + u, 1.0 + 3 * u),
               std::invalid_argument);
  // A step count of 2^53 or more is not exact as a double loop index (and
  // past size_t not convertible at all).
  EXPECT_THROW(obs::windowed_jain({&f}, 0.01, 1e-300, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(obs::windowed_jain({&f}, 0.01, 0x1p-53, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_NO_THROW(obs::windowed_jain({&f}, 0.01, 0.25, 0.0, 1.0));
}

// --- AnalyzerPins: exact values on fixed irregular series -------------------
// Every value below was recorded to 17 significant digits, so any change in
// the analyzers' arithmetic, not just in their algorithm, fails here. The
// series cover uneven spacing, repeated sample times, window ends between
// samples, band and reference edges hit exactly, and windows that neither
// the fairness grid step nor the analysis span divides.

TimeSeries series_of(std::initializer_list<Sample> samples) {
  TimeSeries ts("pin");
  for (const Sample& s : samples) ts.push(s.t, s.value);
  return ts;
}

// Around a band [8, 12] (target 10, epsilon 2) the signal enters from
// above, leaves above, returns exactly on the upper edge, leaves below and
// re-enters from below. Two sample times repeat: 0.021, where it enters the
// band between two samples at one instant, and 0.090.
TimeSeries band_series() {
  return series_of({{0.000, 20.0}, {0.013, 15.0}, {0.021, 13.5},
                    {0.021, 9.5}, {0.040, 13.0}, {0.047, 12.0},
                    {0.060, 7.0}, {0.0605, 7.5}, {0.071, 8.5},
                    {0.090, 10.0}, {0.090, 10.5}, {0.110, 11.9},
                    {0.127, 9.0}});
}

obs::SettlingResult settle(const TimeSeries& ts, double min_dwell, double t0,
                           double t1) {
  obs::SettlingParams p;
  p.target = 10.0;
  p.epsilon = 2.0;
  p.min_dwell = min_dwell;
  return obs::settling_time(ts, p, t0, t1);
}

TEST(AnalyzerPins, SettlingTime) {
  const TimeSeries ts = band_series();
  // Last outside sample (0.0605, 7.5); entry interpolated on the lower edge.
  const auto tail = settle(ts, 0.0, 0.005, 0.12);
  EXPECT_TRUE(tail.settled);
  EXPECT_EQ(tail.settle_t, 0.065750000000000003);
  // The same entry with too short a dwell behind it.
  const auto short_dwell = settle(ts, 0.05, 0.005, 0.12);
  EXPECT_FALSE(short_dwell.settled);
  EXPECT_EQ(short_dwell.settle_t, 0.0);
  // Leaves above at 0.040 and lands exactly on the upper edge at 0.047.
  const auto edge = settle(ts, 0.0, 0.03, 0.05);
  EXPECT_TRUE(edge.settled);
  EXPECT_EQ(edge.settle_t, 0.047);
  // Enters between the two samples at t = 0.021.
  const auto same_instant = settle(ts, 0.0, 0.015, 0.03);
  EXPECT_TRUE(same_instant.settled);
  EXPECT_EQ(same_instant.settle_t, 0.021000000000000001);
  // Inside throughout: settled from the window's first sample.
  const auto inside = settle(ts, 0.0, 0.085, 0.115);
  EXPECT_TRUE(inside.settled);
  EXPECT_EQ(inside.settle_t, 0.089999999999999997);
  // Ends outside the band.
  const auto outside = settle(ts, 0.0, 0.0, 0.065);
  EXPECT_FALSE(outside.settled);
  EXPECT_EQ(outside.settle_t, 0.0);
  // The whole series, with a dwell it just meets.
  const auto whole = settle(ts, 0.06, -1.0, 1.0);
  EXPECT_TRUE(whole.settled);
  EXPECT_EQ(whole.settle_t, 0.065750000000000003);
}

TEST(AnalyzerPins, Overshoot) {
  const TimeSeries ts = band_series();
  // Above 12 on both sides of the repeated time 0.021, exactly on 12 at
  // 0.047, and a zero-length segment at 0.090.
  const auto mid = obs::overshoot(ts, 12.0, 0.005, 0.12);
  EXPECT_EQ(mid.max_excursion, 3.0);
  EXPECT_EQ(mid.time_above_fraction, 0.21060382916053016);
  const auto whole = obs::overshoot(ts, 10.7, -1.0, 1.0);
  EXPECT_EQ(whole.max_excursion, 9.3000000000000007);
  EXPECT_EQ(whole.time_above_fraction, 0.53577208021411127);
  // One sample: the fraction is whether it lies above the target.
  const auto single = obs::overshoot(ts, 12.0, 0.04, 0.045);
  EXPECT_EQ(single.max_excursion, 1.0);
  EXPECT_EQ(single.time_above_fraction, 1.0);
  // Two samples at one instant: no span, so the last value decides.
  const auto instant = obs::overshoot(ts, 10.2, 0.09, 0.1);
  EXPECT_EQ(instant.max_excursion, 0.30000000000000071);
  EXPECT_EQ(instant.time_above_fraction, 1.0);
  // No sample in the window.
  const auto empty = obs::overshoot(ts, 12.0, 0.0905, 0.0906);
  EXPECT_EQ(empty.max_excursion, 0.0);
  EXPECT_EQ(empty.time_above_fraction, 0.0);
}

// Swings about 10 with uneven spacing, a repeated sample time at 0.007, a
// flat stretch exactly on 10 from 0.013 to 0.019, and a dip to 9.7 at 0.024
// that a hysteresis of 0.5 swallows.
TimeSeries swing_series() {
  return series_of({{0.000, 10.0}, {0.002, 12.0}, {0.005, 11.0},
                    {0.007, 8.0}, {0.007, 7.5}, {0.011, 9.0},
                    {0.013, 10.0}, {0.016, 10.0}, {0.019, 10.0},
                    {0.022, 13.1}, {0.024, 9.7}, {0.027, 11.0},
                    {0.031, 6.2}, {0.034, 12.5}, {0.036, 12.5},
                    {0.041, 8.2}, {0.045, 10.4}});
}

TEST(AnalyzerPins, Oscillation) {
  const TimeSeries ts = swing_series();
  const auto mean_ref = obs::oscillation(ts, 0.001, 0.043);
  EXPECT_EQ(mean_ref.peak_to_peak, 6.8999999999999995);
  EXPECT_EQ(mean_ref.period, 0.011066534154906249);
  EXPECT_EQ(mean_ref.crossings, 7);
  const auto mean_ref_hyst =
      obs::oscillation(ts, 0.001, 0.043, std::nullopt, 0.5);
  EXPECT_EQ(mean_ref_hyst.peak_to_peak, 6.8999999999999995);
  EXPECT_EQ(mean_ref_hyst.period, 0.016599801232359372);
  EXPECT_EQ(mean_ref_hyst.crossings, 5);
  const auto on_flat = obs::oscillation(ts, 0.001, 0.043, 10.0, 0.0);
  EXPECT_EQ(on_flat.peak_to_peak, 6.8999999999999995);
  EXPECT_EQ(on_flat.period, 0.011080103359173128);
  EXPECT_EQ(on_flat.crossings, 7);
  const auto swallowed = obs::oscillation(ts, 0.001, 0.043, 10.0, 0.5);
  EXPECT_EQ(swallowed.peak_to_peak, 6.8999999999999995);
  EXPECT_EQ(swallowed.period, 0.016620155038759691);
  EXPECT_EQ(swallowed.crossings, 5);
  const auto whole = obs::oscillation(ts, -1.0, 1.0);
  EXPECT_EQ(whole.peak_to_peak, 6.8999999999999995);
  EXPECT_EQ(whole.period, 0.011079090909090908);
  EXPECT_EQ(whole.crossings, 9);
  // Three samples at one instant: the default reference falls back to the
  // last of them, 9.5, which 11 crosses.
  const TimeSeries burst = series_of({{0.5, 9.0}, {0.5, 11.0}, {0.5, 9.5}});
  const auto at_once = obs::oscillation(burst, 0.0, 1.0);
  EXPECT_EQ(at_once.peak_to_peak, 2.0);
  EXPECT_EQ(at_once.period, 0.0);
  EXPECT_EQ(at_once.crossings, 1);
}

// Three flows sampled at different times. Between 0.0148 and 0.023 flow 1
// is idle, so the window [0.015, 0.022) holds no traffic from it; flow 2
// starts after t0 and ends before t1, so both ends clamp.
struct JainFlows {
  TimeSeries f0 = series_of({{0.0, 4.0}, {0.0037, 6.5}, {0.0081, 5.0},
                             {0.0122, 9.0}, {0.019, 3.0}, {0.025, 7.25},
                             {0.031, 2.0}, {0.038, 8.0}, {0.045, 5.5}});
  TimeSeries f1 = series_of({{0.0005, 1.0}, {0.006, 3.0}, {0.011, 2.0},
                             {0.0148, 0.0}, {0.023, 0.0}, {0.027, 4.0},
                             {0.027, 4.5}, {0.034, 6.0}, {0.041, 1.5}});
  TimeSeries f2 = series_of({{0.002, 5.0}, {0.009, 5.0}, {0.0175, 2.5},
                             {0.026, 6.0}, {0.033, 4.0}, {0.0395, 4.0}});
};

std::optional<double> worst_window(const std::vector<const TimeSeries*>& flows,
                                   double window, double dt, double t0,
                                   double t1) {
  return obs::windowed_jain(flows, window, dt, t0, t1);
}

TEST(AnalyzerPins, WindowedJain) {
  const JainFlows j;
  const std::vector<const TimeSeries*> three = {&j.f0, &j.f1, &j.f2};
  // 0.007 s windows over 0.0395 s: five whole windows and a partial one;
  // the 0.3 ms step does not divide the window.
  EXPECT_EQ(worst_window(three, 0.007, 3e-4, 0.001, 0.0405).value(),
            0.64985773956270576);
  // A step longer than the window crosses several boundaries at once.
  EXPECT_EQ(worst_window(three, 0.002, 5.1e-3, 0.001, 0.0405).value(),
            0.63378792090182712);
  // Flow 1 alone in the window where it is idle: no window has traffic.
  EXPECT_FALSE(
      worst_window({&j.f1}, 0.002, 2.5e-4, 0.016, 0.022).has_value());
}

}  // namespace
}  // namespace ecnd
