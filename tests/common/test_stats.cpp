#include "cpm/common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cpm/common/error.hpp"
#include "cpm/common/rng.hpp"

namespace cpm {
namespace {

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_DOUBLE_EQ(rs.mean(), 6.2);
  // Sample variance with n-1: sum (x - 6.2)^2 / 4 = 148.8 / 4
  double ss = 0.0;
  for (double x : xs) ss += (x - 6.2) * (x - 6.2);
  EXPECT_NEAR(rs.variance(), ss / 4.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(TimeWeightedStats, PiecewiseConstantAverage) {
  TimeWeightedStats tw;
  tw.start(0.0, 1.0);
  tw.update(2.0, 3.0);  // value 1 on [0,2)
  tw.update(5.0, 0.0);  // value 3 on [2,5)
  tw.finish(10.0);      // value 0 on [5,10)
  // integral = 2*1 + 3*3 + 5*0 = 11 over 10 time units.
  EXPECT_NEAR(tw.time_average(), 1.1, 1e-12);
  EXPECT_NEAR(tw.integral(), 11.0, 1e-12);
}

TEST(TimeWeightedStats, ResetDiscardsHistory) {
  TimeWeightedStats tw;
  tw.start(0.0, 100.0);
  tw.update(10.0, 2.0);
  tw.reset_at(10.0);  // warm-up deletion
  tw.finish(20.0);
  EXPECT_NEAR(tw.time_average(), 2.0, 1e-12);
}

TEST(TimeWeightedStats, RejectsTimeTravel) {
  TimeWeightedStats tw;
  tw.start(5.0, 1.0);
  EXPECT_THROW(tw.update(4.0, 2.0), Error);
}

TEST(P2Quantile, SmallSamplesAreExact) {
  P2Quantile q(0.5);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);
  q.add(1.0);
  EXPECT_DOUBLE_EQ(q.value(), 2.0);  // median of {1,3}
}

TEST(P2Quantile, TracksUniformQuantiles) {
  Rng rng(99);
  for (double target : {0.5, 0.9, 0.95}) {
    P2Quantile q(target);
    for (int i = 0; i < 100000; ++i) q.add(rng.uniform01());
    EXPECT_NEAR(q.value(), target, 0.01) << "quantile " << target;
  }
}

TEST(P2Quantile, TracksExponentialP95) {
  Rng rng(101);
  P2Quantile q(0.95);
  for (int i = 0; i < 200000; ++i) q.add(rng.exponential(1.0));
  // True p95 of Exp(1) is -ln(0.05) ~ 2.9957.
  EXPECT_NEAR(q.value(), 2.9957, 0.08);
}

TEST(P2Quantile, RejectsDegenerateQuantile) {
  EXPECT_THROW(P2Quantile(0.0), Error);
  EXPECT_THROW(P2Quantile(1.0), Error);
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.95), 1.644854, 1e-5);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.999), 3.090232, 1e-5);
}

TEST(TCritical, MatchesTables) {
  // Two-sided 95%: t_{df,0.975}.
  EXPECT_NEAR(t_critical(1, 0.95), 12.706, 1e-3);
  EXPECT_NEAR(t_critical(5, 0.95), 2.571, 1e-3);
  EXPECT_NEAR(t_critical(10, 0.95), 2.228, 1e-3);
  EXPECT_NEAR(t_critical(30, 0.95), 2.042, 5e-3);
  EXPECT_NEAR(t_critical(100, 0.95), 1.984, 5e-3);
  // 99% level for moderate df.
  EXPECT_NEAR(t_critical(20, 0.99), 2.845, 2e-2);
}

TEST(ConfidenceIntervalTest, CoversTrueMean) {
  // With many repetitions, a 95% CI over normal samples should contain the
  // true mean ~95% of the time.
  Rng rng(2024);
  int covered = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> xs(20);
    for (auto& x : xs) x = rng.normal(10.0, 4.0);
    const auto ci = confidence_interval(xs, 0.95);
    if (ci.lo() <= 10.0 && 10.0 <= ci.hi()) ++covered;
  }
  const double coverage = static_cast<double>(covered) / trials;
  EXPECT_GT(coverage, 0.90);
  EXPECT_LT(coverage, 0.99);
}

TEST(ConfidenceIntervalTest, SingleValueHasNoWidth) {
  const auto ci = confidence_interval({5.0});
  EXPECT_DOUBLE_EQ(ci.mean, 5.0);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
}

TEST(ConfidenceIntervalTest, EmptyIsZero) {
  const auto ci = confidence_interval({});
  EXPECT_DOUBLE_EQ(ci.mean, 0.0);
}

TEST(ConfidenceIntervalTest, RelativeWidth) {
  ConfidenceInterval ci;
  ci.mean = 10.0;
  ci.half_width = 0.5;
  EXPECT_DOUBLE_EQ(ci.relative(), 0.05);
  ci.mean = 0.0;
  EXPECT_TRUE(std::isinf(ci.relative()));
}

}  // namespace
}  // namespace cpm
