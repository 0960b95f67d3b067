#include "cpm/queueing/basic.hpp"

#include <gtest/gtest.h>

#include "cpm/common/error.hpp"

namespace cpm::queueing {
namespace {

TEST(Mm1, ClosedForm) {
  const double lambda = 0.5, mu = 1.0;
  const auto m = mm1(lambda, mu);
  EXPECT_DOUBLE_EQ(m.utilization, 0.5);
  EXPECT_NEAR(m.mean_sojourn, 1.0 / (mu - lambda), 1e-12);  // = 2
  EXPECT_NEAR(m.mean_wait, m.mean_sojourn - 1.0 / mu, 1e-12);
  EXPECT_NEAR(m.mean_in_system, lambda / (mu - lambda), 1e-12);  // L = 1
  EXPECT_NEAR(m.mean_queue_len, m.mean_in_system - m.utilization, 1e-12);
}

TEST(Mm1, ThrowsWhenUnstable) {
  EXPECT_THROW(mm1(1.0, 1.0), Error);
  EXPECT_THROW(mm1(2.0, 1.0), Error);
}

TEST(Mm1, ZeroArrivals) {
  const auto m = mm1(0.0, 1.0);
  EXPECT_DOUBLE_EQ(m.mean_wait, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_sojourn, 1.0);
}

TEST(Mg1, ReducesToMm1ForExponentialService) {
  const double lambda = 0.7;
  const auto ref = mm1(lambda, 1.0);
  const auto m = mg1(lambda, Distribution::exponential(1.0));
  EXPECT_NEAR(m.mean_wait, ref.mean_wait, 1e-12);
  EXPECT_NEAR(m.mean_sojourn, ref.mean_sojourn, 1e-12);
}

TEST(Mg1, Md1HasHalfTheMm1Wait) {
  // Classic P-K consequence: deterministic service halves the queueing wait.
  const double lambda = 0.8;
  const auto exp_q = mg1(lambda, Distribution::exponential(1.0));
  const auto det_q = mg1(lambda, Distribution::deterministic(1.0));
  EXPECT_NEAR(det_q.mean_wait, 0.5 * exp_q.mean_wait, 1e-12);
}

TEST(Mg1, WaitGrowsWithScv) {
  const double lambda = 0.6;
  double prev = 0.0;
  for (double scv : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    const auto m = mg1(lambda, Distribution::from_mean_scv(1.0, scv));
    EXPECT_GT(m.mean_wait, prev);
    prev = m.mean_wait;
  }
}

TEST(Mg1, PollaczekKhinchineExplicit) {
  // lambda=0.5, service: Erlang-2 mean 1 -> E[S^2] = 1.5.
  const auto m = mg1(0.5, Distribution::erlang(2, 1.0));
  const double expected_wq = 0.5 * 1.5 / (2.0 * (1.0 - 0.5));
  EXPECT_NEAR(m.mean_wait, expected_wq, 1e-12);
}

TEST(Mg1Ps, SojournInsensitiveToServiceLaw) {
  const double lambda = 0.5;
  const auto a = mg1_ps(lambda, Distribution::exponential(1.0));
  const auto b = mg1_ps(lambda, Distribution::hyper_exp2(1.0, 8.0));
  const auto c = mg1_ps(lambda, Distribution::deterministic(1.0));
  EXPECT_NEAR(a.mean_sojourn, 2.0, 1e-12);  // E[S]/(1-rho) = 1/0.5
  EXPECT_NEAR(b.mean_sojourn, a.mean_sojourn, 1e-12);
  EXPECT_NEAR(c.mean_sojourn, a.mean_sojourn, 1e-12);
}

TEST(QueueMetricsProperties, LittleLawConsistency) {
  for (double lambda : {0.1, 0.5, 0.9}) {
    const auto m = mg1(lambda, Distribution::erlang(3, 1.0));
    EXPECT_NEAR(m.mean_queue_len, lambda * m.mean_wait, 1e-12);
    EXPECT_NEAR(m.mean_in_system, lambda * m.mean_sojourn, 1e-12);
  }
}

}  // namespace
}  // namespace cpm::queueing
