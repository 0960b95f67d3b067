#include "cpm/power/energy.hpp"

#include <gtest/gtest.h>

#include "cpm/common/error.hpp"
#include "cpm/core/cluster_model.hpp"

namespace cpm::power {
namespace {

using core::Demand;
using core::Tier;
using core::WorkloadClass;
using queueing::Discipline;

// A model's tiers, classes and operating point. A class's demand at a tier
// run below f_base is its service time there times the speedup, so that
// at the operating point each visit takes the time the case states.
struct EnergyCase {
  std::vector<Tier> tiers;
  std::vector<WorkloadClass> classes;
  std::vector<double> frequencies;
};

EnergyMetrics energy(const EnergyCase& c) {
  const core::ClusterModel model(c.tiers, c.classes);
  const core::Evaluation ev = model.evaluate(c.frequencies);
  EXPECT_TRUE(ev.stable);
  return ev.energy;
}

ServerPower server(double idle, double busy, double alpha) {
  return ServerPower(units::watts(idle), units::watts(busy), alpha,
                     DvfsRange{units::hertz(0.5), units::hertz(1.0), units::hertz(1.0)});
}

EnergyCase make_two_tier() {
  EnergyCase s;
  const ServerPower sp = server(100.0, 250.0, 3.0);
  s.tiers = {Tier{"a", 1, Discipline::kNonPreemptivePriority, sp},
             Tier{"b", 2, Discipline::kNonPreemptivePriority, sp}};
  s.frequencies = {1.0, 0.8};
  auto route = [](double ma, double mb) {
    return std::vector<Demand>{Demand{0, Distribution::exponential(ma)},
                               Demand{1, Distribution::exponential(mb * 0.8)}};
  };
  s.classes = {WorkloadClass{"hi", units::per_second(2.0), route(0.10, 0.15)},
               WorkloadClass{"lo", units::per_second(3.0), route(0.12, 0.20)}};
  return s;
}

TEST(ComputeEnergy, ClusterPowerMatchesHandComputation) {
  const auto em = energy(make_two_tier());
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
  const auto em = energy(make_two_tier());
  // hi: 150*0.10 at tier a + 76.8*0.15 at tier b.
  EXPECT_NEAR(em.marginal_energy[0].value(), 150.0 * 0.10 + 76.8 * 0.15, 1e-9);
  EXPECT_NEAR(em.marginal_energy[1].value(), 150.0 * 0.12 + 76.8 * 0.20, 1e-9);
}

TEST(ComputeEnergy, ProportionalAttributionRecoversFullPower) {
  // Full cost recovery: sum_k lambda_k * E_k == cluster average power.
  const auto em = energy(make_two_tier());
  const double recovered =
      2.0 * em.per_request_energy[0].value() + 3.0 * em.per_request_energy[1].value();
  EXPECT_NEAR(recovered, em.cluster_avg_power.value(), 1e-9);
}

TEST(ComputeEnergy, ProportionalExceedsMarginal) {
  const auto em = energy(make_two_tier());
  for (std::size_t k = 0; k < 2; ++k)
    EXPECT_GT(em.per_request_energy[k], em.marginal_energy[k]);
}

TEST(ComputeEnergy, SizeMismatchThrows) {
  EnergyCase s = make_two_tier();
  s.frequencies = {1.0};  // one operating point for two tiers
  EXPECT_THROW(energy(s), Error);
}

TEST(ComputeEnergy, IdleStationStillDrawsIdlePower) {
  const ServerPower sp = server(100.0, 200.0, 1.0);
  const auto em = energy(EnergyCase{
      {Tier{"a", 1, Discipline::kFcfs, sp}, Tier{"b", 3, Discipline::kFcfs, sp}},
      {WorkloadClass{"c", units::per_second(1.0), {Demand{0, Distribution::exponential(0.3)}}},
       WorkloadClass{"d", units::per_second(3.0), {Demand{0, Distribution::exponential(0.1)}}},
       WorkloadClass{"probe", units::per_second(0.0), {Demand{0, Distribution::exponential(0.1)}}}},
      {1.0, 1.0}});
  EXPECT_NEAR(em.station_avg_power[1].value(), 300.0, 1e-9);  // 3 idle servers
  // The unvisited station's idle power is charged to every request alike,
  // 300 W over the total rate of 4/s, so the classes recover the whole
  // cluster's power; the class without traffic pays no share.
  const double recovered =
      1.0 * em.per_request_energy[0].value() + 3.0 * em.per_request_energy[1].value();
  EXPECT_NEAR(recovered, em.cluster_avg_power.value(), 1e-9);
  // Station a (rho = 0.6) splits its 100 W idle by load share: 0.3 and 0.3.
  EXPECT_NEAR(em.per_request_energy[0].value(), 100.0 * 0.3 + 50.0 / 1.0 + 300.0 / 4.0, 1e-9);
  EXPECT_NEAR(em.per_request_energy[1].value(), 100.0 * 0.1 + 50.0 / 3.0 + 300.0 / 4.0, 1e-9);
  EXPECT_EQ(em.per_request_energy[2], em.marginal_energy[2]);
}

TEST(ComputeEnergy, ZeroRateClassGetsNoIdleShare) {
  const auto em = energy(EnergyCase{
      {Tier{"a", 1, Discipline::kFcfs, server(100.0, 200.0, 1.0)}},
      {WorkloadClass{"busy", units::per_second(1.0), {Demand{0, Distribution::exponential(0.4)}}},
       WorkloadClass{"probe", units::per_second(0.0), {Demand{0, Distribution::exponential(0.4)}}}},
      {1.0}});
  // The probe still has a defined marginal energy but no idle share.
  EXPECT_NEAR(em.per_request_energy[1].value(), 100.0 * 0.4, 1e-9);
}

}  // namespace
}  // namespace cpm::power
