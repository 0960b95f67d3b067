#include "cpm/common/distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <tuple>

#include "cpm/common/error.hpp"
#include "cpm/common/stats.hpp"

namespace cpm {
namespace {

TEST(Distribution, DeterministicMoments) {
  const auto d = Distribution::deterministic(3.0);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
  EXPECT_DOUBLE_EQ(d.scv(), 0.0);
  EXPECT_DOUBLE_EQ(d.second_moment(), 9.0);
}

TEST(Distribution, ExponentialMoments) {
  const auto d = Distribution::exponential(2.0);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.variance(), 4.0);
  EXPECT_DOUBLE_EQ(d.scv(), 1.0);
}

TEST(Distribution, ErlangScvIsOneOverK) {
  for (int k = 1; k <= 10; ++k) {
    const auto d = Distribution::erlang(k, 5.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_NEAR(d.scv(), 1.0 / k, 1e-12);
  }
}

TEST(Distribution, HyperExpMatchesTargetScv) {
  for (double scv : {1.5, 2.0, 4.0, 10.0}) {
    const auto d = Distribution::hyper_exp2(3.0, scv);
    EXPECT_NEAR(d.mean(), 3.0, 1e-12);
    EXPECT_NEAR(d.scv(), scv, 1e-9);
  }
}

TEST(Distribution, LognormalMatchesTargetScv) {
  const auto d = Distribution::lognormal(2.0, 3.0);
  EXPECT_NEAR(d.mean(), 2.0, 1e-12);
  EXPECT_NEAR(d.scv(), 3.0, 1e-9);
}

TEST(Distribution, ParetoMoments) {
  const auto d = Distribution::pareto(3.0, 6.0);
  EXPECT_NEAR(d.mean(), 6.0, 1e-12);
  // shape 3, mean 6 -> x_m = 4; E[X^2] = 3*16/(3-2) = 48; var = 12.
  EXPECT_NEAR(d.second_moment(), 48.0, 1e-9);
}

TEST(Distribution, UniformMoments) {
  const auto d = Distribution::uniform(1.0, 3.0);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_NEAR(d.variance(), 4.0 / 12.0, 1e-12);
}

TEST(Distribution, FromMeanScvSelectsFamily) {
  EXPECT_EQ(Distribution::from_mean_scv(1.0, 0.0).kind(), DistKind::kDeterministic);
  EXPECT_EQ(Distribution::from_mean_scv(1.0, 0.25).kind(), DistKind::kGamma);
  EXPECT_EQ(Distribution::from_mean_scv(1.0, 1.0).kind(), DistKind::kExponential);
  EXPECT_EQ(Distribution::from_mean_scv(1.0, 2.0).kind(), DistKind::kHyperExp2);
}

TEST(Distribution, FromMeanScvMatchesMoments) {
  for (double scv : {0.0, 0.2, 0.5, 1.0, 2.0, 5.0}) {
    const auto d = Distribution::from_mean_scv(4.0, scv);
    EXPECT_NEAR(d.mean(), 4.0, 1e-12) << "scv=" << scv;
    EXPECT_NEAR(d.scv(), scv, 1e-9) << "scv=" << scv;
  }
}

TEST(Distribution, FactoryValidation) {
  EXPECT_THROW(Distribution::exponential(0.0), Error);
  EXPECT_THROW(Distribution::erlang(0, 1.0), Error);
  EXPECT_THROW(Distribution::hyper_exp2(1.0, 1.0), Error);  // needs scv > 1
  EXPECT_THROW(Distribution::pareto(2.0, 1.0), Error);      // needs shape > 2
  EXPECT_THROW(Distribution::uniform(3.0, 1.0), Error);
  EXPECT_THROW(Distribution::deterministic(-1.0), Error);
  EXPECT_THROW(Distribution::from_mean_scv(1.0, -0.5), Error);
}

TEST(Distribution, PointMassAtZeroRescalesToItself) {
  // A zero-demand route step: rescaling it to any speed leaves it at 0.
  for (const Distribution& zero :
       {Distribution::deterministic(0.0), Distribution::uniform(0.0, 0.0)}) {
    const Distribution scaled = zero.scaled_to_mean(zero.mean() / 0.6);
    EXPECT_EQ(scaled.kind(), zero.kind());
    EXPECT_EQ(scaled.mean(), 0.0);
    EXPECT_EQ(scaled.second_moment(), 0.0);
    EXPECT_EQ(scaled.third_moment(), 0.0);
  }
  // A law with a positive mean still cannot be scaled to mean 0.
  EXPECT_THROW((void)Distribution::deterministic(1.0).scaled_to_mean(0.0), Error);
  EXPECT_THROW((void)Distribution::exponential(1.0).scaled_to_mean(0.0), Error);
  EXPECT_THROW((void)Distribution::uniform(0.0, 2.0).scaled_to_mean(0.0), Error);
}

// ---- property-style sweep: sampling reproduces the analytic moments -----

struct FamilyCase {
  std::string label;
  Distribution dist;
};

// gtest lists each case with its printed parameter, and ctest takes that
// text into the test name. Without this it prints the raw bytes, which hold
// the label's heap address and so change from one run to the next.
void PrintTo(const FamilyCase& fc, std::ostream* os) { *os << fc.label; }

class SamplingMatchesMoments : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(SamplingMatchesMoments, MeanAndVariance) {
  const auto& fc = GetParam();
  Rng rng(12345);
  RunningStats stats;
  const int n = 400000;
  for (int i = 0; i < n; ++i) stats.add(fc.dist.sample(rng));
  // 4-sigma tolerance on the sample mean; heavy tails get extra headroom.
  const double sd = std::sqrt(fc.dist.variance() / n);
  EXPECT_NEAR(stats.mean(), fc.dist.mean(), std::max(4.0 * sd, 1e-12))
      << fc.label;
  if (fc.dist.kind() != DistKind::kPareto && fc.dist.kind() != DistKind::kLognormal) {
    EXPECT_NEAR(stats.variance(), fc.dist.variance(),
                0.05 * fc.dist.variance() + 1e-12)
        << fc.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SamplingMatchesMoments,
    ::testing::Values(
        FamilyCase{"det", Distribution::deterministic(2.0)},
        FamilyCase{"exp", Distribution::exponential(0.5)},
        FamilyCase{"erlang4", Distribution::erlang(4, 2.0)},
        FamilyCase{"gamma0p4", Distribution::gamma(0.4, 1.0)},
        FamilyCase{"gamma2p5", Distribution::gamma(2.5, 3.0)},
        FamilyCase{"hyper2", Distribution::hyper_exp2(1.0, 4.0)},
        FamilyCase{"uniform", Distribution::uniform(0.5, 1.5)},
        FamilyCase{"lognormal", Distribution::lognormal(1.0, 2.0)},
        FamilyCase{"pareto", Distribution::pareto(3.5, 2.0)}),
    [](const auto& param_info) { return param_info.param.label; });

// ---- scaling preserves shape ---------------------------------------------

class ScalingPreservesScv : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(ScalingPreservesScv, ScvInvariantMeanExact) {
  const auto& fc = GetParam();
  for (double new_mean : {0.1, 1.0, 7.5}) {
    const Distribution scaled = fc.dist.scaled_to_mean(new_mean);
    EXPECT_NEAR(scaled.mean(), new_mean, 1e-9 * new_mean) << fc.label;
    EXPECT_NEAR(scaled.scv(), fc.dist.scv(), 1e-6 * (1.0 + fc.dist.scv()))
        << fc.label;
    EXPECT_EQ(scaled.kind(), fc.dist.kind()) << fc.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ScalingPreservesScv,
    ::testing::Values(
        FamilyCase{"det", Distribution::deterministic(2.0)},
        FamilyCase{"exp", Distribution::exponential(0.5)},
        FamilyCase{"erlang3", Distribution::erlang(3, 2.0)},
        FamilyCase{"gamma", Distribution::gamma(1.7, 3.0)},
        FamilyCase{"hyper", Distribution::hyper_exp2(1.0, 3.0)},
        FamilyCase{"uniform", Distribution::uniform(0.5, 1.5)},
        FamilyCase{"lognormal", Distribution::lognormal(1.0, 2.0)},
        FamilyCase{"pareto", Distribution::pareto(4.0, 2.0)}),
    [](const auto& param_info) { return param_info.param.label; });

TEST(Distribution, ThirdMomentsClosedForms) {
  // Deterministic: m^3.
  EXPECT_NEAR(Distribution::deterministic(2.0).third_moment(), 8.0, 1e-12);
  // Exponential mean m: 6 m^3.
  EXPECT_NEAR(Distribution::exponential(2.0).third_moment(), 48.0, 1e-12);
  // Erlang-k mean m: k(k+1)(k+2)/(k/m)^3.
  const auto e3 = Distribution::erlang(3, 1.0);
  EXPECT_NEAR(e3.third_moment(), 3.0 * 4.0 * 5.0 / 27.0, 1e-12);
  // Uniform [0, 2]: E[X^3] = 2^4 / (4*2) = 2.
  EXPECT_NEAR(Distribution::uniform(0.0, 2.0).third_moment(), 2.0, 1e-12);
  // Pareto with shape <= 3 has infinite third moment.
  EXPECT_TRUE(std::isinf(Distribution::pareto(2.5, 1.0).third_moment()));
  EXPECT_TRUE(std::isfinite(Distribution::pareto(3.5, 1.0).third_moment()));
}

TEST(Distribution, ThirdMomentMatchesSampling) {
  Rng rng(4242);
  for (const auto& d : {Distribution::exponential(1.0),
                        Distribution::erlang(4, 2.0),
                        Distribution::hyper_exp2(1.0, 2.0),
                        Distribution::uniform(0.5, 1.5)}) {
    double sum3 = 0.0;
    const int n = 500000;
    for (int i = 0; i < n; ++i) {
      const double x = d.sample(rng);
      sum3 += x * x * x;
    }
    const double est = sum3 / n;
    EXPECT_NEAR(est, d.third_moment(), 0.05 * d.third_moment()) << d.name();
  }
}

TEST(Distribution, SamplesAreNonNegative) {
  Rng rng(777);
  for (const auto& d :
       {Distribution::exponential(1.0), Distribution::hyper_exp2(1.0, 5.0),
        Distribution::gamma(0.3, 1.0), Distribution::pareto(2.5, 1.0),
        Distribution::lognormal(1.0, 4.0)}) {
    for (int i = 0; i < 10000; ++i) ASSERT_GE(d.sample(rng), 0.0) << d.name();
  }
}

}  // namespace
}  // namespace cpm
