#include "cpm/queueing/mmck.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/queueing/erlang.hpp"

namespace cpm::queueing {
namespace {

TEST(Mmck, LossSystemReducesToErlangB) {
  // K = c is the Erlang loss system: blocking = Erlang-B exactly.
  for (int c : {1, 2, 5, 10}) {
    for (double a : {0.5, 2.0, 0.9 * c}) {
      const auto m = mmck(c, c, a, 1.0);
      EXPECT_NEAR(m.blocking_probability, erlang_b(c, a), 1e-12)
          << "c=" << c << " a=" << a;
      EXPECT_DOUBLE_EQ(m.mean_queue_len, 0.0);  // no waiting room
    }
  }
}

TEST(Mmck, LargeCapacityConvergesToMmc) {
  const double lambda = 1.6, mu = 1.0;
  const int c = 2;  // rho = 0.8
  const auto finite = mmck(c, 400, lambda, mu);
  EXPECT_NEAR(finite.blocking_probability, 0.0, 1e-9);
  EXPECT_NEAR(finite.mean_wait, mmc_mean_wait(c, lambda, mu), 1e-6);
  EXPECT_NEAR(finite.mean_sojourn, mmc_mean_wait(c, lambda, mu) + 1.0 / mu, 1e-6);
}

TEST(Mmck, Mm11ClosedForm) {
  // M/M/1/1: blocking = rho/(1+rho), L = rho/(1+rho).
  const auto m = mmck(1, 1, 2.0, 1.0);
  EXPECT_NEAR(m.blocking_probability, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.mean_in_system, 2.0 / 3.0, 1e-12);
  // Accepted jobs never wait: sojourn = service time.
  EXPECT_NEAR(m.mean_sojourn, 1.0, 1e-12);
}

TEST(Mmck, BlockingDecreasesWithCapacity) {
  double prev = 1.0;
  for (int k : {1, 2, 4, 8, 16, 32}) {
    const auto m = mmck(1, k, 0.9, 1.0);
    EXPECT_LT(m.blocking_probability, prev);
    prev = m.blocking_probability;
  }
}

TEST(Mmck, SojournGrowsWithCapacity) {
  double prev = 0.0;
  for (int k : {1, 2, 4, 8, 16}) {
    const auto m = mmck(1, k, 0.9, 1.0);
    EXPECT_GT(m.mean_sojourn, prev);
    prev = m.mean_sojourn;
  }
}

TEST(Mmck, StableAboveSaturation) {
  // Finite systems have a steady state even at rho > 1.
  const auto m = mmck(1, 10, 3.0, 1.0);
  EXPECT_GT(m.blocking_probability, 0.6);
  EXPECT_NEAR(m.throughput, 1.0, 0.01);  // server nearly always busy
  EXPECT_NEAR(m.utilization, 1.0, 0.01);
  EXPECT_TRUE(std::isfinite(m.mean_sojourn));
}

TEST(Mmck, LittleLawOnAcceptedStream) {
  const auto m = mmck(3, 12, 2.5, 1.0);
  EXPECT_NEAR(m.mean_in_system, m.throughput * m.mean_sojourn, 1e-9);
  EXPECT_NEAR(m.mean_queue_len, m.throughput * m.mean_wait, 1e-9);
}

TEST(Mmck, ZeroArrivals) {
  const auto m = mmck(2, 5, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(m.blocking_probability, 0.0);
  EXPECT_DOUBLE_EQ(m.throughput, 0.0);
}

TEST(Mmck, Validation) {
  EXPECT_THROW(mmck(0, 1, 1.0, 1.0), Error);
  EXPECT_THROW(mmck(2, 1, 1.0, 1.0), Error);  // capacity < servers
  EXPECT_THROW(mmck(1, 1, -1.0, 1.0), Error);
  EXPECT_THROW(mmck(1, 1, 1.0, 0.0), Error);
}

TEST(SmallestCapacityFor, FindsTradeoffPoint) {
  // rho = 0.9: smallest K with sojourn <= 5 and blocking <= 4.5% is K = 11
  // (K = 10 blocks 5.1%, K = 11 blocks 4.4% at sojourn 4.97).
  const int k = smallest_capacity_for(1, 0.9, 1.0, 5.0, 0.045);
  ASSERT_EQ(k, 11);
  const auto at_k = mmck(1, k, 0.9, 1.0);
  EXPECT_LE(at_k.mean_sojourn, 5.0);
  EXPECT_LE(at_k.blocking_probability, 0.045);
  const auto below = mmck(1, k - 1, 0.9, 1.0);
  EXPECT_GT(below.blocking_probability, 0.045);  // k is minimal
}

TEST(SmallestCapacityFor, DelayBoundCanBeTheBlocker) {
  // sojourn <= 4 and blocking <= 5% cannot coexist at rho 0.9: by K = 9
  // the sojourn passes 4 while blocking is still 5.9%.
  EXPECT_EQ(smallest_capacity_for(1, 0.9, 1.0, 4.0, 0.05), -1);
}

TEST(SmallestCapacityFor, ImpossibleCombinationReturnsMinusOne) {
  // Demanding near-zero blocking AND tiny delay at rho 0.95 is impossible.
  EXPECT_EQ(smallest_capacity_for(1, 0.95, 1.0, 2.0, 1e-6, 1000), -1);
}

}  // namespace
}  // namespace cpm::queueing
