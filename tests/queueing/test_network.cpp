#include "cpm/queueing/network.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/queueing/basic.hpp"

namespace cpm::queueing {
namespace {

NetworkStation fcfs_station(int servers = 1) {
  return NetworkStation{servers, Discipline::kFcfs};
}

// The analysis of a stable network given whole, through its skeleton.
NetworkMetrics analyze(const std::vector<NetworkStation>& stations,
                       const std::vector<CustomerClass>& classes) {
  NetworkMetrics m;
  NetworkWorkspace ws;
  EXPECT_TRUE(analyze_network(network_skeleton(stations, classes), classes, m, ws));
  return m;
}

TEST(AnalyzeNetwork, SingleStationMatchesMm1) {
  std::vector<NetworkStation> stations = {fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c", units::per_second(0.5), {Visit{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  const auto ref = mm1(0.5, 1.0);
  EXPECT_NEAR(net.e2e_delay[0].value(), ref.mean_sojourn, 1e-12);
  EXPECT_NEAR(net.mean_e2e_delay.value(), ref.mean_sojourn, 1e-12);
  EXPECT_NEAR(net.station_utilization[0], 0.5, 1e-12);
}

TEST(AnalyzeNetwork, TandemMm1SumsSojourns) {
  // Jackson: Poisson in, exponential service, FCFS -> each station is an
  // independent M/M/1 and E2E delay sums exactly.
  std::vector<NetworkStation> stations = {fcfs_station(), fcfs_station(),
                                          fcfs_station()};
  const double lambda = 0.4;
  std::vector<CustomerClass> classes = {
      CustomerClass{"c",
                    units::per_second(lambda),
                    {Visit{0, Distribution::exponential(1.0)},
                     Visit{1, Distribution::exponential(0.5)},
                     Visit{2, Distribution::exponential(2.0)}}}};
  const auto net = analyze(stations, classes);
  const double expected = mm1(lambda, 1.0).mean_sojourn +
                          mm1(lambda, 2.0).mean_sojourn +
                          mm1(lambda, 0.5).mean_sojourn;
  EXPECT_NEAR(net.e2e_delay[0].value(), expected, 1e-12);
  ASSERT_EQ(net.visit_sojourn[0].size(), 3u);
  EXPECT_NEAR(net.visit_sojourn[0][0], mm1(lambda, 1.0).mean_sojourn, 1e-12);
}

TEST(AnalyzeNetwork, RevisitsAggregateLoad) {
  // A class visiting the same station twice doubles that station's load.
  std::vector<NetworkStation> stations = {fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c",
                    units::per_second(0.3),
                    {Visit{0, Distribution::exponential(1.0)},
                     Visit{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_NEAR(net.station_utilization[0], 0.6, 1e-12);
  // Station behaves as M/M/1 with lambda = 0.6; the class passes twice.
  const auto ref = mm1(0.6, 1.0);
  EXPECT_NEAR(net.e2e_delay[0].value(), 2.0 * ref.mean_sojourn, 1e-12);
}

TEST(AnalyzeNetwork, ClassesOnlyLoadTheirOwnRoute) {
  std::vector<NetworkStation> stations = {fcfs_station(), fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"left", units::per_second(0.5), {Visit{0, Distribution::exponential(1.0)}}},
      CustomerClass{"right", units::per_second(0.25), {Visit{1, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_NEAR(net.station_utilization[0], 0.5, 1e-12);
  EXPECT_NEAR(net.station_utilization[1], 0.25, 1e-12);
  EXPECT_NEAR(net.e2e_delay[0].value(), mm1(0.5, 1.0).mean_sojourn, 1e-12);
  EXPECT_NEAR(net.e2e_delay[1].value(), mm1(0.25, 1.0).mean_sojourn, 1e-12);
  // Per-station rho of the absent class is zero.
  EXPECT_DOUBLE_EQ(net.station_rho[0][1], 0.0);
  EXPECT_DOUBLE_EQ(net.station_rho[1][0], 0.0);
}

TEST(AnalyzeNetwork, TrafficWeightedMeanDelay) {
  std::vector<NetworkStation> stations = {fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"fast", units::per_second(0.1), {Visit{0, Distribution::exponential(0.5)}}},
      CustomerClass{"slow", units::per_second(0.3), {Visit{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  const double expected =
      (0.1 * net.e2e_delay[0].value() + 0.3 * net.e2e_delay[1].value()) / 0.4;
  EXPECT_NEAR(net.mean_e2e_delay.value(), expected, 1e-12);
  EXPECT_NEAR(net.total_rate.value(), 0.4, 1e-12);
}

TEST(AnalyzeNetwork, PriorityOrderingAcrossNetwork) {
  std::vector<NetworkStation> stations = {
      NetworkStation{1, Discipline::kNonPreemptivePriority},
      NetworkStation{1, Discipline::kNonPreemptivePriority}};
  auto route = [](double mean) {
    return std::vector<Visit>{Visit{0, Distribution::exponential(mean)},
                              Visit{1, Distribution::exponential(mean)}};
  };
  std::vector<CustomerClass> classes = {CustomerClass{"hi", units::per_second(0.3), route(1.0)},
                                        CustomerClass{"lo", units::per_second(0.3), route(1.0)}};
  const auto net = analyze(stations, classes);
  EXPECT_LT(net.e2e_delay[0], net.e2e_delay[1]);
}

TEST(AnalyzeNetwork, ReportsUnstableStation) {
  std::vector<NetworkStation> stations = {fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c", units::per_second(2.0), {Visit{0, Distribution::exponential(1.0)}}}};
  NetworkMetrics m;
  NetworkWorkspace ws;
  EXPECT_FALSE(analyze_network(network_skeleton(stations, classes), classes, m, ws));
}

TEST(NetworkUtilizations, MultiServerDividesLoad) {
  std::vector<NetworkStation> stations = {fcfs_station(4)};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c", units::per_second(2.0), {Visit{0, Distribution::exponential(1.0)}}}};
  const auto util = network_utilizations(network_skeleton(stations, classes), classes);
  EXPECT_NEAR(util[0], 0.5, 1e-12);
}

TEST(AnalyzeNetwork, StationWithNoVisitorsIsIdle) {
  std::vector<NetworkStation> stations = {fcfs_station(), fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c", units::per_second(0.5), {Visit{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_DOUBLE_EQ(net.station_utilization[1], 0.0);
}

TEST(PercentileDelay, Mm1SojournIsExactlyExponential) {
  // Single M/M/1: sojourn ~ Exp(mu - lambda); the gamma fit recovers
  // shape 1 and hence the exact quantile.
  std::vector<NetworkStation> stations = {fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c", units::per_second(0.5), {Visit{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  // Mean 2, variance 4 (Exp(0.5)).
  EXPECT_NEAR(net.e2e_delay[0].value(), 2.0, 1e-12);
  EXPECT_NEAR(net.e2e_delay_variance[0].value(), 4.0, 1e-9);
  for (double p : {0.5, 0.9, 0.95, 0.99}) {
    const double expected = -2.0 * std::log(1.0 - p);
    EXPECT_NEAR(percentile_e2e_delay(net, 0, p).value(), expected, 1e-6 * expected);
  }
}

TEST(PercentileDelay, TakacsSecondMomentMm1) {
  // M/M/1 lambda=0.5, mu=1: E[W^2] = rho * 2/(mu-lambda)^2 = 4.
  std::vector<NetworkStation> stations = {fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c", units::per_second(0.5), {Visit{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_NEAR(net.station_wait_m2[0][0], 4.0, 1e-9);
}

TEST(PercentileDelay, DeterministicRouteHasServiceVarianceOnly) {
  // Zero arrivals elsewhere: a probe-like light class through empty-ish
  // stations; variance from waits plus service variance.
  std::vector<NetworkStation> stations = {fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c", units::per_second(1e-9), {Visit{0, Distribution::deterministic(1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_NEAR(net.e2e_delay_variance[0].value(), 0.0, 1e-8);
  // Near-degenerate variance: percentile collapses to (almost) the mean.
  EXPECT_NEAR(percentile_e2e_delay(net, 0, 0.95).value(), net.e2e_delay[0].value(), 1e-3);
}

TEST(PercentileDelay, TandemVarianceAdds) {
  std::vector<NetworkStation> stations = {fcfs_station(), fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c",
                    units::per_second(0.5),
                    {Visit{0, Distribution::exponential(1.0)},
                     Visit{1, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  // Two independent Exp(0.5) sojourns: variance 4 + 4.
  EXPECT_NEAR(net.e2e_delay_variance[0].value(), 8.0, 1e-9);
  // Sum of two iid exponentials is Erlang-2: p95 quantile known via the
  // gamma fit being EXACT here (shape = 16/8 = 2).
  const double q = percentile_e2e_delay(net, 0, 0.95).value();
  // Erlang-2 with rate 0.5: q solves 1 - e^{-x/2}(1 + x/2) = 0.95.
  EXPECT_NEAR(1.0 - std::exp(-q / 2.0) * (1.0 + q / 2.0), 0.95, 1e-9);
}

TEST(PercentileDelay, HigherPercentileIsLarger) {
  std::vector<NetworkStation> stations = {
      NetworkStation{1, Discipline::kNonPreemptivePriority}};
  std::vector<CustomerClass> classes = {
      CustomerClass{"hi", units::per_second(0.3), {Visit{0, Distribution::exponential(1.0)}}},
      CustomerClass{"lo", units::per_second(0.4), {Visit{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_GT(percentile_e2e_delay(net, k, 0.95), percentile_e2e_delay(net, k, 0.5));
    EXPECT_GT(percentile_e2e_delay(net, k, 0.95), net.e2e_delay[k]);
  }
}

TEST(PercentileDelay, InfiniteVarianceHeavyTail) {
  // Pareto shape 2.5 service: infinite third moment -> infinite wait m2 at
  // a FCFS station -> infinite variance -> +inf percentile (honest answer).
  std::vector<NetworkStation> stations = {fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c", units::per_second(0.5), {Visit{0, Distribution::pareto(2.5, 1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_TRUE(std::isinf(net.e2e_delay_variance[0].value()));
  EXPECT_TRUE(std::isinf(percentile_e2e_delay(net, 0, 0.95).value()));
}

TEST(PercentileDelay, Validation) {
  std::vector<NetworkStation> stations = {fcfs_station()};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c", units::per_second(0.5), {Visit{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_THROW(percentile_e2e_delay(net, 5, 0.9), Error);
  EXPECT_THROW(percentile_e2e_delay(net, 0, 0.0), Error);
  EXPECT_THROW(percentile_e2e_delay(net, 0, 1.0), Error);
}

// Load sweep property: delay grows monotonically with load, toward
// saturation.
class NetworkLoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(NetworkLoadSweep, DelayMonotoneInLoad) {
  const double rho = GetParam();
  std::vector<NetworkStation> stations = {
      NetworkStation{1, Discipline::kNonPreemptivePriority}};
  auto classes_at = [&](double load) {
    return std::vector<CustomerClass>{
        CustomerClass{"hi", units::per_second(load / 2.0), {Visit{0, Distribution::exponential(1.0)}}},
        CustomerClass{"lo", units::per_second(load / 2.0), {Visit{0, Distribution::exponential(1.0)}}}};
  };
  const auto at = analyze(stations, classes_at(rho));
  const auto above = analyze(stations, classes_at(rho + 0.02));
  EXPECT_GT(above.mean_e2e_delay, at.mean_e2e_delay);
}

INSTANTIATE_TEST_SUITE_P(Loads, NetworkLoadSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace cpm::queueing
