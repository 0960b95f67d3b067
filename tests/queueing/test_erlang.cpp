#include "cpm/queueing/erlang.hpp"

#include <gtest/gtest.h>

#include "cpm/common/error.hpp"
#include "cpm/queueing/basic.hpp"

namespace cpm::queueing {
namespace {

TEST(ErlangB, ZeroServersBlocksEverything) {
  EXPECT_DOUBLE_EQ(erlang_b(0, 5.0), 1.0);
}

TEST(ErlangB, ZeroLoadNeverBlocks) {
  EXPECT_DOUBLE_EQ(erlang_b(3, 0.0), 0.0);
}

TEST(ErlangB, OneServerClosedForm) {
  // B(1, a) = a / (1 + a).
  for (double a : {0.1, 0.5, 1.0, 2.0, 10.0})
    EXPECT_NEAR(erlang_b(1, a), a / (1.0 + a), 1e-12);
}

TEST(ErlangB, KnownTableValues) {
  // Classic traffic-engineering table entries.
  EXPECT_NEAR(erlang_b(5, 3.0), 0.11005, 1e-4);
  EXPECT_NEAR(erlang_b(10, 7.0), 0.078741, 1e-5);
  EXPECT_NEAR(erlang_b(2, 1.0), 0.2, 1e-12);  // 1/2 / (1 + 1 + 1/2) = 0.2
}

TEST(ErlangB, DecreasesWithServers) {
  double prev = erlang_b(1, 4.0);
  for (int c = 2; c <= 20; ++c) {
    const double b = erlang_b(c, 4.0);
    EXPECT_LT(b, prev);
    prev = b;
  }
}

TEST(ErlangC, OneServerEqualsRho) {
  // C(1, a) = a for a < 1 (probability of waiting in M/M/1 is rho).
  for (double a : {0.1, 0.5, 0.9})
    EXPECT_NEAR(erlang_c(1, a), a, 1e-12);
}

TEST(ErlangC, KnownValues) {
  // C(2, 1) = 1/3; standard textbook value.
  EXPECT_NEAR(erlang_c(2, 1.0), 1.0 / 3.0, 1e-12);
  // c=10, a=8 -> ~0.4092 (Erlang-C tables).
  EXPECT_NEAR(erlang_c(10, 8.0), 0.4092, 5e-4);
}

TEST(ErlangC, AtLeastErlangB) {
  for (int c : {2, 5, 10}) {
    const double a = 0.7 * c;
    EXPECT_GE(erlang_c(c, a), erlang_b(c, a));
  }
}

TEST(ErlangC, RequiresStability) {
  EXPECT_THROW(erlang_c(2, 2.0), Error);
  EXPECT_THROW(erlang_c(2, 2.5), Error);
}

TEST(MmcWait, ReducesToMm1AtOneServer) {
  const double lambda = 0.8, mu = 1.0;
  const auto m = mm1(lambda, mu);
  EXPECT_NEAR(mmc_mean_wait(1, lambda, mu), m.mean_wait, 1e-12);
  EXPECT_NEAR(mmc_mean_wait(1, lambda, mu) + 1.0 / mu, m.mean_sojourn, 1e-12);
}

TEST(MmcWait, ZeroArrivalsZeroWait) {
  EXPECT_DOUBLE_EQ(mmc_mean_wait(3, 0.0, 1.0), 0.0);
}

TEST(MmcWait, MoreServersWaitLess) {
  const double lambda = 3.0, mu = 1.0;
  double prev = mmc_mean_wait(4, lambda, mu);
  for (int c = 5; c <= 12; ++c) {
    const double w = mmc_mean_wait(c, lambda, mu);
    EXPECT_LT(w, prev);
    prev = w;
  }
}

TEST(MmcWait, KnownValue) {
  // M/M/2 with lambda=1.5, mu=1: a=1.5, C(2,1.5)=0.6428..., W=C/(2-1.5).
  const double c_prob = erlang_c(2, 1.5);
  EXPECT_NEAR(mmc_mean_wait(2, 1.5, 1.0), c_prob / 0.5, 1e-12);
  EXPECT_NEAR(c_prob, 9.0 / 14.0, 1e-12);  // closed form for c=2
}

TEST(MmcWait, ThrowsWhenUnstable) {
  EXPECT_THROW(mmc_mean_wait(2, 2.0, 1.0), Error);
}

}  // namespace
}  // namespace cpm::queueing
