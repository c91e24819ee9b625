#include "core/timeseries.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ecnd {
namespace {

TimeSeries ramp() {
  TimeSeries ts("ramp");
  for (int i = 0; i <= 10; ++i) ts.push(i * 0.1, i * 1.0);
  return ts;
}

TEST(TimeSeries, EmptyBasics) {
  TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.value_at(1.0), 0.0);
  EXPECT_EQ(ts.mean_over(0.0, 1.0), 0.0);
}

TEST(TimeSeries, ValueAtInterpolates) {
  TimeSeries ts;
  ts.push(0.0, 0.0);
  ts.push(1.0, 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(0.5), 5.0);
  EXPECT_DOUBLE_EQ(ts.value_at(0.25), 2.5);
}

TEST(TimeSeries, ValueAtClampsOutsideSpan) {
  TimeSeries ts = ramp();
  EXPECT_DOUBLE_EQ(ts.value_at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.value_at(99.0), 10.0);
  // A NaN time reads the first sample instead of the slot before it.
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(ts.value_at(nan), 0.0);
  // A NaN bound means that end of the span: [0, 0.5] here.
  const TimeSeries r = ts.resampled(3, nan, 0.5);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[0].t, 0.0);
  EXPECT_DOUBLE_EQ(r[1].t, 0.25);
  EXPECT_DOUBLE_EQ(r[2].t, 0.5);
  EXPECT_DOUBLE_EQ(r[1].value, 2.5);
  EXPECT_DOUBLE_EQ(r[2].value, 5.0);
}

TEST(TimeSeries, WindowExtremes) {
  TimeSeries ts = ramp();
  EXPECT_DOUBLE_EQ(ts.min_over(0.25, 0.85).value(), 3.0);
  EXPECT_DOUBLE_EQ(ts.max_over(0.25, 0.85).value(), 8.0);
}

TEST(TimeSeries, MeanOverIsTimeWeighted) {
  TimeSeries ts;
  ts.push(0.0, 0.0);
  ts.push(1.0, 0.0);
  ts.push(1.5, 2.0);  // short excursion
  ts.push(2.0, 0.0);
  // trapezoid area = 0 + 0.5 + 0.5 = 1.0 over span 2 -> mean 0.5.
  EXPECT_NEAR(ts.mean_over(0.0, 2.0), 0.5, 1e-12);
}

TEST(TimeSeries, StddevOfConstantIsZero) {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.push(i, 4.0);
  EXPECT_DOUBLE_EQ(ts.stddev_over(0.0, 9.0), 0.0);
}

TEST(TimeSeries, StddevDetectsOscillation) {
  TimeSeries ts;
  for (int i = 0; i < 100; ++i) ts.push(i, i % 2 ? 1.0 : -1.0);
  EXPECT_NEAR(ts.stddev_over(0.0, 99.0), 1.0, 1e-9);
}

TEST(TimeSeries, StddevIsTimeWeightedOnUnevenGrid) {
  // Nine quiet seconds, then a one-second burst to 6. Sample-weighted std
  // counts the burst as a third of the data (std = sqrt(8) ~ 2.83); the
  // time-weighted std counts it as a tenth of the span.
  TimeSeries ts;
  ts.push(0.0, 0.0);
  ts.push(9.0, 0.0);
  ts.push(10.0, 6.0);
  // mean = 0.3; trapezoid of (x-0.3)^2 = 0.5*(0.09+0.09)*9
  //   + 0.5*(0.09+32.49)*1 = 17.1; std = sqrt(17.1/10).
  EXPECT_NEAR(ts.stddev_over(0.0, 10.0), std::sqrt(1.71), 1e-12);
  EXPECT_LT(ts.stddev_over(0.0, 10.0), 2.0);  // well below sample-weighted 2.83
}

TEST(TimeSeries, StddevOfEvenGridMatchesSampleStd) {
  // On an evenly sampled symmetric series the time weighting reduces to the
  // plain sample weighting (each interior sample gets weight dt).
  TimeSeries ts;
  for (int i = 0; i < 50; ++i) ts.push(i, i % 2 ? 3.0 : 1.0);
  EXPECT_NEAR(ts.stddev_over(0.0, 49.0), 1.0, 1e-9);
}

TEST(TimeSeries, ResampleUniformGrid) {
  TimeSeries ts = ramp();
  TimeSeries rs = ts.resampled(5, ts.first_time(), ts.last_time());
  ASSERT_EQ(rs.size(), 5u);
  EXPECT_DOUBLE_EQ(rs[0].t, 0.0);
  EXPECT_DOUBLE_EQ(rs[4].t, 1.0);
  EXPECT_NEAR(rs[2].value, 5.0, 1e-9);
}

TEST(TimeSeries, WindowOutsideDataHasNoExtremes) {
  TimeSeries ts = ramp();
  EXPECT_EQ(ts.mean_over(5.0, 6.0), 0.0);
  EXPECT_FALSE(ts.min_over(5.0, 6.0).has_value());
  EXPECT_FALSE(ts.max_over(5.0, 6.0).has_value());
}

TEST(TimeSeries, WindowIsInclusiveAndEmptyWhenReversed) {
  TimeSeries ts;
  for (const double t : {0.0, 1.0, 1.0, 2.0, 3.0}) ts.push(t, t);
  // Both ends inclusive, including every sample at a repeated time.
  const auto w = ts.window(1.0, 2.0);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.front().t, 1.0);
  EXPECT_EQ(w.back().t, 2.0);
  EXPECT_EQ(ts.window(0.5, 2.5).size(), 3u);
  EXPECT_TRUE(ts.window(1.5, 1.9).empty());
  EXPECT_TRUE(ts.window(2.5, 0.5).empty());
  // A NaN bound does not restrict its side.
  const double nan = std::nan("");
  EXPECT_EQ(ts.window(nan, 1.0).size(), 3u);
  EXPECT_EQ(ts.window(1.0, nan).size(), 4u);
}

TEST(TimeSeries, WindowedResampleMatchesWindow) {
  TimeSeries ts = ramp();  // t in [0, 1], value = 10t
  const TimeSeries rs = ts.resampled(5, 0.2, 0.6);
  ASSERT_EQ(rs.size(), 5u);
  EXPECT_DOUBLE_EQ(rs[0].t, 0.2);
  EXPECT_DOUBLE_EQ(rs[4].t, 0.6);
  EXPECT_NEAR(rs[2].value, 4.0, 1e-9);
}

TEST(TimeSeries, WindowedResampleClampsToSpan) {
  TimeSeries ts = ramp();
  const TimeSeries rs = ts.resampled(3, -5.0, 99.0);
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_DOUBLE_EQ(rs[0].t, 0.0);
  EXPECT_DOUBLE_EQ(rs[2].t, 1.0);
}

// --- resampled(n, t0, t1) degenerate windows ------------------------------
// These cases used to fall into an empty-output path; shape_line and the
// offline analyzers window their inputs and must never lose a non-empty
// signal to a degenerate window.

TEST(TimeSeries, ResampleZeroPointsIsEmpty) {
  TimeSeries ts = ramp();
  EXPECT_TRUE(ts.resampled(0, 0.2, 0.6).empty());
}

TEST(TimeSeries, ResampleSinglePointSamplesWindowStart) {
  TimeSeries ts = ramp();
  const TimeSeries rs = ts.resampled(1, 0.2, 0.6);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_DOUBLE_EQ(rs[0].t, 0.2);
  EXPECT_NEAR(rs[0].value, 2.0, 1e-9);
}

TEST(TimeSeries, ResampleInstantWindowYieldsOneSample) {
  TimeSeries ts = ramp();
  const TimeSeries rs = ts.resampled(5, 0.4, 0.4);  // t0 == t1
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_DOUBLE_EQ(rs[0].t, 0.4);
  EXPECT_NEAR(rs[0].value, 4.0, 1e-9);
}

TEST(TimeSeries, ResampleWindowClampedToSingleInstant) {
  // [0.95, 99] clamps to [0.95, 1.0]; [99, 100] clamps past the span
  // entirely and must return the nearest endpoint, not an empty series.
  TimeSeries ts = ramp();
  const TimeSeries tail = ts.resampled(4, 99.0, 100.0);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_DOUBLE_EQ(tail[0].t, 1.0);
  EXPECT_NEAR(tail[0].value, 10.0, 1e-9);

  const TimeSeries head = ts.resampled(4, -10.0, -5.0);
  ASSERT_EQ(head.size(), 1u);
  EXPECT_DOUBLE_EQ(head[0].t, 0.0);
  EXPECT_NEAR(head[0].value, 0.0, 1e-9);
}

TEST(TimeSeries, ResampleSingleSampleSeries) {
  TimeSeries ts;
  ts.push(2.0, 7.0);
  const TimeSeries rs = ts.resampled(5, 0.0, 10.0);  // window clamps to [2, 2]
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_DOUBLE_EQ(rs[0].t, 2.0);
  EXPECT_DOUBLE_EQ(rs[0].value, 7.0);
}

TEST(TimeSeries, ResampleEmptySeriesStaysEmpty) {
  TimeSeries ts;
  EXPECT_TRUE(ts.resampled(5, 0.0, 1.0).empty());
}

}  // namespace
}  // namespace ecnd
