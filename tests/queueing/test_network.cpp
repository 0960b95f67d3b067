#include "cpm/queueing/network.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/queueing/basic.hpp"

namespace cpm::queueing {
namespace {

using core::Demand;
using core::Tier;
using core::WorkloadClass;

Tier fcfs_station(int servers = 1) { return Tier{"fcfs", servers, Discipline::kFcfs}; }

Tier np_station() { return Tier{"np", 1, Discipline::kNonPreemptivePriority}; }

// The network's evaluation as a model whose tiers run at f_base, where
// every visit keeps its own service law: the decomposition analyses each
// station from its own flows and assembles the results.
core::Evaluation evaluate(const std::vector<Tier>& stations,
                          const std::vector<WorkloadClass>& classes) {
  const core::ClusterModel model(stations, classes);
  return model.evaluate(model.max_frequencies());
}

// The analysis of a stable network.
NetworkMetrics analyze(const std::vector<Tier>& stations,
                       const std::vector<WorkloadClass>& classes) {
  const core::Evaluation ev = evaluate(stations, classes);
  EXPECT_TRUE(ev.stable);
  return ev.net;
}

TEST(AnalyzeNetwork, SingleStationMatchesMm1) {
  std::vector<Tier> stations = {fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c", units::per_second(0.5), {Demand{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  const auto ref = mm1(0.5, 1.0);
  EXPECT_NEAR(net.e2e_delay[0].value(), ref.mean_sojourn, 1e-12);
  EXPECT_NEAR(net.mean_e2e_delay.value(), ref.mean_sojourn, 1e-12);
  EXPECT_NEAR(net.station_utilization[0], 0.5, 1e-12);
}

TEST(AnalyzeNetwork, TandemMm1SumsSojourns) {
  // Jackson: Poisson in, exponential service, FCFS -> each station is an
  // independent M/M/1 and E2E delay sums exactly.
  std::vector<Tier> stations = {fcfs_station(), fcfs_station(), fcfs_station()};
  const double lambda = 0.4;
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c",
                    units::per_second(lambda),
                    {Demand{0, Distribution::exponential(1.0)},
                     Demand{1, Distribution::exponential(0.5)},
                     Demand{2, Distribution::exponential(2.0)}}}};
  const auto net = analyze(stations, classes);
  const double expected = mm1(lambda, 1.0).mean_sojourn +
                          mm1(lambda, 2.0).mean_sojourn +
                          mm1(lambda, 0.5).mean_sojourn;
  EXPECT_NEAR(net.e2e_delay[0].value(), expected, 1e-12);
  EXPECT_NEAR(net.station_wait[0][0] + 1.0, mm1(lambda, 1.0).mean_sojourn, 1e-12);
}

TEST(AnalyzeNetwork, RevisitsAggregateLoad) {
  // A class visiting the same station twice doubles that station's load.
  std::vector<Tier> stations = {fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c",
                    units::per_second(0.3),
                    {Demand{0, Distribution::exponential(1.0)},
                     Demand{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_NEAR(net.station_utilization[0], 0.6, 1e-12);
  // Station behaves as M/M/1 with lambda = 0.6; the class passes twice.
  const auto ref = mm1(0.6, 1.0);
  EXPECT_NEAR(net.e2e_delay[0].value(), 2.0 * ref.mean_sojourn, 1e-12);
}

TEST(AnalyzeNetwork, ClassesOnlyLoadTheirOwnRoute) {
  std::vector<Tier> stations = {fcfs_station(), fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"left", units::per_second(0.5), {Demand{0, Distribution::exponential(1.0)}}},
      WorkloadClass{"right", units::per_second(0.25), {Demand{1, Distribution::exponential(1.0)}}}};
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
  std::vector<Tier> stations = {fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"fast", units::per_second(0.1), {Demand{0, Distribution::exponential(0.5)}}},
      WorkloadClass{"slow", units::per_second(0.3), {Demand{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  const double expected =
      (0.1 * net.e2e_delay[0].value() + 0.3 * net.e2e_delay[1].value()) / 0.4;
  EXPECT_NEAR(net.mean_e2e_delay.value(), expected, 1e-12);
}

TEST(AnalyzeNetwork, PriorityOrderingAcrossNetwork) {
  std::vector<Tier> stations = {
      np_station(),
      np_station()};
  auto route = [](double mean) {
    return std::vector<Demand>{Demand{0, Distribution::exponential(mean)},
                              Demand{1, Distribution::exponential(mean)}};
  };
  std::vector<WorkloadClass> classes = {WorkloadClass{"hi", units::per_second(0.3), route(1.0)},
                                        WorkloadClass{"lo", units::per_second(0.3), route(1.0)}};
  const auto net = analyze(stations, classes);
  EXPECT_LT(net.e2e_delay[0], net.e2e_delay[1]);
}

TEST(AnalyzeNetwork, ReportsUnstableStation) {
  std::vector<Tier> stations = {fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c", units::per_second(2.0), {Demand{0, Distribution::exponential(1.0)}}}};
  EXPECT_FALSE(evaluate(stations, classes).stable);
}

TEST(NetworkUtilizations, MultiServerDividesLoad) {
  std::vector<Tier> stations = {fcfs_station(4)};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c", units::per_second(2.0), {Demand{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_NEAR(net.station_utilization[0], 0.5, 1e-12);
}

TEST(AnalyzeNetwork, StationWithNoVisitorsIsIdle) {
  std::vector<Tier> stations = {fcfs_station(), fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c", units::per_second(0.5), {Demand{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_DOUBLE_EQ(net.station_utilization[1], 0.0);
}

TEST(PercentileDelay, Mm1SojournIsExactlyExponential) {
  // Single M/M/1: sojourn ~ Exp(mu - lambda); the gamma fit recovers
  // shape 1 and hence the exact quantile.
  std::vector<Tier> stations = {fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c", units::per_second(0.5), {Demand{0, Distribution::exponential(1.0)}}}};
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
  // M/M/1 lambda=0.5, mu=1: E[W^2] = rho * 2/(mu-lambda)^2 = 4, so the
  // sojourn's variance is Var(W) + Var(S) = (4 - 1) + 1.
  const StationMetrics m = analyze_station(
      1, Discipline::kFcfs, {ClassFlow{units::per_second(0.5), Distribution::exponential(1.0)}});
  EXPECT_NEAR(m.wait_m2[0], 4.0, 1e-9);
  std::vector<Tier> stations = {fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c", units::per_second(0.5), {Demand{0, Distribution::exponential(1.0)}}}};
  EXPECT_NEAR(analyze(stations, classes).e2e_delay_variance[0].value(), 4.0, 1e-9);
}

TEST(PercentileDelay, DeterministicRouteHasServiceVarianceOnly) {
  // Zero arrivals elsewhere: a probe-like light class through empty-ish
  // stations; variance from waits plus service variance.
  std::vector<Tier> stations = {fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c", units::per_second(1e-9), {Demand{0, Distribution::deterministic(1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_NEAR(net.e2e_delay_variance[0].value(), 0.0, 1e-8);
  // Near-degenerate variance: percentile collapses to (almost) the mean.
  EXPECT_NEAR(percentile_e2e_delay(net, 0, 0.95).value(), net.e2e_delay[0].value(), 1e-3);
}

TEST(PercentileDelay, TandemVarianceAdds) {
  std::vector<Tier> stations = {fcfs_station(), fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c",
                    units::per_second(0.5),
                    {Demand{0, Distribution::exponential(1.0)},
                     Demand{1, Distribution::exponential(1.0)}}}};
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
  std::vector<Tier> stations = {
      np_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"hi", units::per_second(0.3), {Demand{0, Distribution::exponential(1.0)}}},
      WorkloadClass{"lo", units::per_second(0.4), {Demand{0, Distribution::exponential(1.0)}}}};
  const auto net = analyze(stations, classes);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_GT(percentile_e2e_delay(net, k, 0.95), percentile_e2e_delay(net, k, 0.5));
    EXPECT_GT(percentile_e2e_delay(net, k, 0.95), net.e2e_delay[k]);
  }
}

TEST(PercentileDelay, InfiniteVarianceHeavyTail) {
  // Pareto shape 2.5 service: infinite third moment -> infinite wait m2 at
  // a FCFS station -> infinite variance -> +inf percentile (honest answer).
  std::vector<Tier> stations = {fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c", units::per_second(0.5), {Demand{0, Distribution::pareto(2.5, 1.0)}}}};
  const auto net = analyze(stations, classes);
  EXPECT_TRUE(std::isinf(net.e2e_delay_variance[0].value()));
  EXPECT_TRUE(std::isinf(percentile_e2e_delay(net, 0, 0.95).value()));
}

TEST(PercentileDelay, Validation) {
  std::vector<Tier> stations = {fcfs_station()};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"c", units::per_second(0.5), {Demand{0, Distribution::exponential(1.0)}}}};
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
  std::vector<Tier> stations = {
      np_station()};
  auto classes_at = [&](double load) {
    return std::vector<WorkloadClass>{
        WorkloadClass{"hi", units::per_second(load / 2.0), {Demand{0, Distribution::exponential(1.0)}}},
        WorkloadClass{"lo", units::per_second(load / 2.0), {Demand{0, Distribution::exponential(1.0)}}}};
  };
  const auto at = analyze(stations, classes_at(rho));
  const auto above = analyze(stations, classes_at(rho + 0.02));
  EXPECT_GT(above.mean_e2e_delay, at.mean_e2e_delay);
}

INSTANTIATE_TEST_SUITE_P(Loads, NetworkLoadSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace cpm::queueing
