#include "cpm/opt/scalar.hpp"

#include <gtest/gtest.h>

#include "cpm/common/error.hpp"

namespace cpm::opt {
namespace {

TEST(MonotoneThreshold, FindsBoundary) {
  const double t = monotone_threshold([](double x) { return x <= 3.7; }, 0.0, 10.0);
  EXPECT_NEAR(t, 3.7, 1e-7);
}

TEST(MonotoneThreshold, AllTrueReturnsHi) {
  EXPECT_DOUBLE_EQ(monotone_threshold([](double) { return true; }, 0.0, 4.0), 4.0);
}

TEST(MonotoneThreshold, RequiresPredAtLo) {
  EXPECT_THROW(monotone_threshold([](double) { return false; }, 0.0, 1.0), Error);
}

}  // namespace
}  // namespace cpm::opt
