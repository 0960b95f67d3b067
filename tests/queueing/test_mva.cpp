#include "cpm/queueing/mva.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/queueing/basic.hpp"

namespace cpm::queueing {
namespace {

std::vector<ClosedStation> two_queues() {
  return {ClosedStation{"cpu", false, 1}, ClosedStation{"disk", false, 1}};
}

TEST(ExactMva, SingleCustomerSeesNoQueueing) {
  // N = 1: response = sum of demands, X = 1/(Z + R).
  const auto r = exact_mva(two_queues(), {0.2, 0.3}, 1, 1.0);
  EXPECT_NEAR(r.response_time[0], 0.5, 1e-12);
  EXPECT_NEAR(r.throughput[0], 1.0 / 1.5, 1e-12);
}

TEST(ExactMva, TwoCustomersClosedForm) {
  // Classic hand-computable case: D = {0.2, 0.3}, Z = 0.
  // N=1: R1 = .2, R2 = .3, X = 2? no: X = 1/.5 = 2, Q1 = .4, Q2 = .6.
  // N=2: R1 = .2(1.4) = .28, R2 = .3(1.6) = .48, R = .76, X = 2/.76.
  const auto r = exact_mva(two_queues(), {0.2, 0.3}, 2, 0.0);
  EXPECT_NEAR(r.response_time[0], 0.76, 1e-12);
  EXPECT_NEAR(r.throughput[0], 2.0 / 0.76, 1e-12);
  // Populations sum to N (no think time).
  EXPECT_NEAR(r.queue_len[0][0] + r.queue_len[0][1], 2.0, 1e-12);
}

TEST(ExactMva, ThroughputSaturatesAtBottleneck) {
  const std::vector<double> demands = {0.2, 0.5};
  double prev_x = 0.0;
  for (int n : {1, 2, 5, 10, 30, 80}) {
    const auto r = exact_mva(two_queues(), demands, n, 1.0);
    EXPECT_GE(r.throughput[0], prev_x - 1e-12);
    EXPECT_LE(r.throughput[0], 1.0 / 0.5 + 1e-9);  // bottleneck bound
    prev_x = r.throughput[0];
  }
  EXPECT_NEAR(prev_x, 2.0, 0.01);  // saturated at 1/D_max
}

TEST(ExactMva, DelayStationNeverQueues) {
  std::vector<ClosedStation> stations = {ClosedStation{"net", true, 1},
                                         ClosedStation{"cpu", false, 1}};
  const auto r = exact_mva(stations, {0.5, 0.2}, 20, 0.0);
  // Response always includes the full 0.5 network delay with no inflation.
  EXPECT_GE(r.response_time[0], 0.5 + 0.2);
  // The cpu saturates; its utilisation approaches 1.
  EXPECT_NEAR(r.station_utilization[1], 1.0, 0.02);
  EXPECT_DOUBLE_EQ(r.station_utilization[0], 0.0);
}

TEST(ExactMva, InteractiveResponseTimeLaw) {
  // R = N/X - Z must hold identically.
  for (int n : {1, 4, 16}) {
    const auto r = exact_mva(two_queues(), {0.1, 0.25}, n, 2.0);
    EXPECT_NEAR(r.response_time[0], n / r.throughput[0] - 2.0, 1e-9) << n;
  }
}

TEST(ExactMva, UtilizationLaw) {
  const auto r = exact_mva(two_queues(), {0.2, 0.3}, 8, 1.0);
  EXPECT_NEAR(r.station_utilization[0], r.throughput[0] * 0.2, 1e-12);
  EXPECT_NEAR(r.station_utilization[1], r.throughput[0] * 0.3, 1e-12);
}

TEST(ExactMva, MultiServerSeidmannLimits) {
  // 2-server station, light load: response ~ demand (no queueing);
  // heavy load: throughput -> c/D.
  std::vector<ClosedStation> st = {ClosedStation{"pool", false, 2}};
  const auto light = exact_mva(st, {0.4}, 1, 10.0);
  EXPECT_NEAR(light.response_time[0], 0.4, 1e-9);
  const auto heavy = exact_mva(st, {0.4}, 200, 0.0);
  EXPECT_NEAR(heavy.throughput[0], 2.0 / 0.4, 0.01);
}

TEST(ExactMva, ZeroPopulation) {
  const auto r = exact_mva(two_queues(), {0.2, 0.3}, 0, 1.0);
  EXPECT_DOUBLE_EQ(r.throughput[0], 0.0);
  EXPECT_DOUBLE_EQ(r.response_time[0], 0.0);
}

TEST(AsymptoticBoundsTest, BoundExactMva) {
  const std::vector<double> demands = {0.2, 0.5};
  const auto b = asymptotic_bounds(two_queues(), demands, 1.0);
  EXPECT_NEAR(b.d_total, 0.7, 1e-12);
  EXPECT_NEAR(b.d_max, 0.5, 1e-12);
  EXPECT_NEAR(b.knee_population, 1.7 / 0.5, 1e-12);
  for (int n : {1, 2, 4, 8, 20}) {
    const auto r = exact_mva(two_queues(), demands, n, 1.0);
    EXPECT_LE(r.throughput[0], b.throughput_bound(n) + 1e-9) << n;
    EXPECT_GE(r.response_time[0], b.response_bound(n, 1.0) - 1e-9) << n;
  }
}

TEST(Mva, Validation) {
  EXPECT_THROW(exact_mva({}, {}, 1, 0.0), Error);
  EXPECT_THROW(exact_mva(two_queues(), {0.1}, 1, 0.0), Error);
  EXPECT_THROW(exact_mva(two_queues(), {0.1, -0.1}, 1, 0.0), Error);
  EXPECT_THROW(exact_mva(two_queues(), {0.1, 0.1}, -1, 0.0), Error);
  EXPECT_THROW(exact_mva(two_queues(), {0.1, 0.1}, 1, -1.0), Error);
}

}  // namespace
}  // namespace cpm::queueing
