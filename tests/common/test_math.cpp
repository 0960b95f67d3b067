#include "cpm/common/math.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cpm/common/error.hpp"

namespace cpm {
namespace {

TEST(GammaP, ExponentialSpecialCase) {
  // P(1, x) = 1 - e^-x.
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0})
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-12) << "x=" << x;
}

TEST(GammaP, ErlangSpecialCase) {
  // P(2, x) = 1 - e^-x (1 + x).
  for (double x : {0.5, 1.0, 3.0, 8.0})
    EXPECT_NEAR(gamma_p(2.0, x), 1.0 - std::exp(-x) * (1.0 + x), 1e-12);
}

TEST(GammaP, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(gamma_p(2.0, 0.0), 0.0);
  EXPECT_NEAR(gamma_p(3.0, 100.0), 1.0, 1e-12);
  EXPECT_THROW(gamma_p(0.0, 1.0), Error);
  EXPECT_THROW(gamma_p(1.0, -1.0), Error);
}

TEST(GammaP, MonotoneInX) {
  double prev = 0.0;
  for (double x = 0.1; x < 10.0; x += 0.3) {
    const double p = gamma_p(2.5, x);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(GammaQuantile, RoundTripsThroughCdf) {
  for (double shape : {0.5, 1.0, 2.0, 7.3}) {
    for (double p : {0.05, 0.5, 0.9, 0.95, 0.99}) {
      const double x = gamma_quantile(p, shape, 1.0);
      EXPECT_NEAR(gamma_p(shape, x), p, 1e-9)
          << "shape=" << shape << " p=" << p;
    }
  }
}

TEST(GammaQuantile, ExponentialClosedForm) {
  // Gamma(1, scale) is Exp(1/scale): q(p) = -scale ln(1-p).
  for (double p : {0.5, 0.9, 0.95}) {
    EXPECT_NEAR(gamma_quantile(p, 1.0, 2.0), -2.0 * std::log(1.0 - p), 1e-9);
  }
}

TEST(GammaQuantile, ScaleIsLinear) {
  const double q1 = gamma_quantile(0.9, 3.0, 1.0);
  const double q5 = gamma_quantile(0.9, 3.0, 5.0);
  EXPECT_NEAR(q5, 5.0 * q1, 1e-9);
}

TEST(GammaQuantile, Validation) {
  EXPECT_THROW(gamma_quantile(0.0, 1.0, 1.0), Error);
  EXPECT_THROW(gamma_quantile(1.0, 1.0, 1.0), Error);
  EXPECT_THROW(gamma_quantile(0.5, -1.0, 1.0), Error);
  EXPECT_THROW(gamma_quantile(0.5, 1.0, 0.0), Error);
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto g = linspace(0.0, 1.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 1.0);
  EXPECT_DOUBLE_EQ(g[2], 0.5);
  EXPECT_THROW(linspace(0.0, 1.0, 1), Error);
}

}  // namespace
}  // namespace cpm
