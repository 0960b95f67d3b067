#include "cpm/power/energy.hpp"

#include <gtest/gtest.h>

#include "cpm/common/error.hpp"
#include "cpm/queueing/network.hpp"

namespace cpm::power {
namespace {

using queueing::CustomerClass;
using queueing::Discipline;
using queueing::NetworkStation;
using queueing::Visit;

// The network analysis and the energy metrics of a stable network.
queueing::NetworkMetrics analyze(const std::vector<NetworkStation>& stations,
                                 const std::vector<CustomerClass>& classes) {
  queueing::NetworkMetrics m;
  queueing::NetworkWorkspace ws;
  EXPECT_TRUE(
      queueing::analyze_network(queueing::network_skeleton(stations, classes), classes, m, ws));
  return m;
}

EnergyMetrics energy(const std::vector<TierPower>& tiers,
                     const std::vector<CustomerClass>& classes,
                     const queueing::NetworkMetrics& net) {
  EnergyMetrics em;
  compute_energy(tiers, classes, net, em);
  return em;
}

struct EnergyCase {
  std::vector<NetworkStation> stations;
  std::vector<CustomerClass> classes;
  std::vector<TierPower> tiers;
  queueing::NetworkMetrics net;
};

EnergyCase make_two_tier() {
  EnergyCase s;
  s.stations = {NetworkStation{1, Discipline::kNonPreemptivePriority},
                NetworkStation{2, Discipline::kNonPreemptivePriority}};
  auto route = [](double ma, double mb) {
    return std::vector<Visit>{Visit{0, Distribution::exponential(ma)},
                              Visit{1, Distribution::exponential(mb)}};
  };
  s.classes = {CustomerClass{"hi", units::per_second(2.0), route(0.10, 0.15)},
               CustomerClass{"lo", units::per_second(3.0), route(0.12, 0.20)}};
  const ServerPower sp(units::watts(100.0), units::watts(250.0), 3.0,
                       DvfsRange{units::hertz(0.5), units::hertz(1.0),
                                 units::hertz(1.0)});
  s.tiers = {TierPower{sp, units::hertz(1.0), 1}, TierPower{sp, units::hertz(0.8), 2}};
  // Note: the frequencies here only affect power curves; the service times
  // in `classes` are taken as already expressed at these frequencies.
  s.net = analyze(s.stations, s.classes);
  return s;
}

TEST(ComputeEnergy, ClusterPowerMatchesHandComputation) {
  const EnergyCase s = make_two_tier();
  const auto em = energy(s.tiers, s.classes, s.net);
  // Station a: rho = 2*0.1 + 3*0.12 = 0.56; power = 100 + 150*0.56.
  const double pa = 100.0 + 150.0 * 0.56;
  // Station b: per-server rho = (2*0.15 + 3*0.2)/2 = 0.45;
  // dynamic at f=0.8: 150*0.512 = 76.8; per server 100 + 76.8*0.45.
  const double pb = 2.0 * (100.0 + 76.8 * 0.45);
  EXPECT_NEAR(em.station_avg_power[0].value(), pa, 1e-9);
  EXPECT_NEAR(em.station_avg_power[1].value(), pb, 1e-9);
  EXPECT_NEAR(em.cluster_avg_power.value(), pa + pb, 1e-9);
}

TEST(ComputeEnergy, MarginalEnergyIsRouteSum) {
  const EnergyCase s = make_two_tier();
  const auto em = energy(s.tiers, s.classes, s.net);
  // hi: 150*0.10 at tier a + 76.8*0.15 at tier b.
  EXPECT_NEAR(em.marginal_energy[0].value(), 150.0 * 0.10 + 76.8 * 0.15, 1e-9);
  EXPECT_NEAR(em.marginal_energy[1].value(), 150.0 * 0.12 + 76.8 * 0.20, 1e-9);
}

TEST(ComputeEnergy, ProportionalAttributionRecoversFullPower) {
  // Full cost recovery: sum_k lambda_k * E_k == cluster average power.
  const EnergyCase s = make_two_tier();
  const auto em = energy(s.tiers, s.classes, s.net);
  const double recovered =
      2.0 * em.per_request_energy[0].value() + 3.0 * em.per_request_energy[1].value();
  EXPECT_NEAR(recovered, em.cluster_avg_power.value(), 1e-9);
}

TEST(ComputeEnergy, ProportionalExceedsMarginal) {
  const EnergyCase s = make_two_tier();
  const auto em = energy(s.tiers, s.classes, s.net);
  for (std::size_t k = 0; k < 2; ++k)
    EXPECT_GT(em.per_request_energy[k], em.marginal_energy[k]);
}

TEST(ComputeEnergy, MeanEnergyIsTrafficWeighted) {
  const EnergyCase s = make_two_tier();
  const auto em = energy(s.tiers, s.classes, s.net);
  const double expected =
      (2.0 * em.per_request_energy[0].value() + 3.0 * em.per_request_energy[1].value()) / 5.0;
  EXPECT_NEAR(em.mean_per_request_energy.value(), expected, 1e-12);
}

TEST(ComputeEnergy, SizeMismatchThrows) {
  const EnergyCase s = make_two_tier();
  std::vector<TierPower> too_few = {s.tiers[0]};
  EXPECT_THROW(energy(too_few, s.classes, s.net), Error);
}

TEST(ComputeEnergy, IdleStationStillDrawsIdlePower) {
  std::vector<NetworkStation> stations = {
      NetworkStation{1, Discipline::kFcfs},
      NetworkStation{3, Discipline::kFcfs}};
  std::vector<CustomerClass> classes = {
      CustomerClass{"c", units::per_second(1.0), {Visit{0, Distribution::exponential(0.3)}}}};
  const auto net = analyze(stations, classes);
  const ServerPower sp(units::watts(100.0), units::watts(200.0), 1.0,
                       DvfsRange{units::hertz(0.5), units::hertz(1.0),
                                 units::hertz(1.0)});
  const std::vector<TierPower> tiers = {TierPower{sp, units::hertz(1.0), 1}, TierPower{sp, units::hertz(1.0), 3}};
  const auto em = energy(tiers, classes, net);
  EXPECT_NEAR(em.station_avg_power[1].value(), 300.0, 1e-9);  // 3 idle servers
  // Idle power of the unvisited station is attributed to nobody.
  const double recovered = 1.0 * em.per_request_energy[0].value();
  EXPECT_NEAR(recovered, em.station_avg_power[0].value(), 1e-9);
}

TEST(ComputeEnergy, ZeroRateClassGetsNoIdleShare) {
  std::vector<NetworkStation> stations = {NetworkStation{1, Discipline::kFcfs}};
  std::vector<CustomerClass> classes = {
      CustomerClass{"busy", units::per_second(1.0), {Visit{0, Distribution::exponential(0.4)}}},
      CustomerClass{"probe", units::per_second(0.0), {Visit{0, Distribution::exponential(0.4)}}}};
  const auto net = analyze(stations, classes);
  const ServerPower sp(units::watts(100.0), units::watts(200.0), 1.0,
                       DvfsRange{units::hertz(0.5), units::hertz(1.0),
                                 units::hertz(1.0)});
  const std::vector<TierPower> tiers = {TierPower{sp, units::hertz(1.0), 1}};
  const auto em = energy(tiers, classes, net);
  // The probe still has a defined marginal energy but no idle share.
  EXPECT_NEAR(em.per_request_energy[1].value(), 100.0 * 0.4, 1e-9);
}

}  // namespace
}  // namespace cpm::power
