// The invariant oracles must (a) hold on every healthy operating point of
// the paper's scenarios — the E1 load sweep across all four disciplines —
// and (b) fail loudly when fed a deliberately corrupted model or
// evaluation. A silent oracle is worse than none: the negative tests here
// prove each law actually has teeth.
#include <gtest/gtest.h>

#include "cpm/check/invariants.hpp"
#include "cpm/core/cpm.hpp"

namespace cpm {
namespace {

using core::ClusterModel;
using core::make_enterprise_model;
using queueing::Discipline;

// ---- positive: the E1 sweep -----------------------------------------------

class AnalyticOracleSweep : public ::testing::TestWithParam<double> {};

TEST_P(AnalyticOracleSweep, HoldOnEnterpriseModelAcrossDisciplines) {
  for (const Discipline d :
       {Discipline::kFcfs, Discipline::kNonPreemptivePriority,
        Discipline::kPreemptiveResume, Discipline::kProcessorSharing}) {
    const auto model = make_enterprise_model(GetParam(), d);
    const auto report = check::check_analytic(model, model.max_frequencies());
    EXPECT_TRUE(report.all_passed())
        << "load " << GetParam() << " discipline " << static_cast<int>(d)
        << ": worst violation " << report.worst_violation();
  }
}

TEST_P(AnalyticOracleSweep, HoldAtReducedFrequencies) {
  // The optimisers (E3-E5) pick interior DVFS points; the laws must hold
  // there too, not only at f_max.
  const auto model = make_enterprise_model(GetParam());
  auto f = model.max_frequencies();
  const auto f_min = model.min_stable_frequencies();
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = 0.5 * (f[i] + f_min[i]);
  if (!model.evaluate(f).stable) return;
  const auto report = check::check_analytic(model, f);
  EXPECT_TRUE(report.all_passed())
      << "load " << GetParam() << ": worst " << report.worst_violation();
}

INSTANTIATE_TEST_SUITE_P(E1LoadSweep, AnalyticOracleSweep,
                         ::testing::Values(0.3, 0.5, 0.7, 0.8, 0.9, 0.95));

TEST(AnalyticOracles, ReportCoversEveryLaw) {
  const auto model = make_enterprise_model(0.7);
  const auto report = check::check_analytic(model, model.max_frequencies());
  for (const char* id : {"utilization-law", "conservation-law",
                         "work-conservation", "energy-balance"}) {
    const auto* c = report.find(id);
    ASSERT_NE(c, nullptr) << id;
    EXPECT_TRUE(c->passed) << id;
    EXPECT_LT(c->worst_violation, c->tolerance) << id;
  }
}

TEST(AnalyticOracles, ThrowOnUnstableModel) {
  const auto model = make_enterprise_model(0.7).with_rate_scale(10.0);
  EXPECT_THROW(check::check_analytic(model, model.max_frequencies()), Error);
}

// ---- negative: corrupted inputs must be detected ---------------------------

TEST(AnalyticOracleDetection, UtilizationLawCatchesMutatedDemand) {
  const auto model = make_enterprise_model(0.7);
  const auto f = model.max_frequencies();
  const auto ev = model.evaluate(f);
  ASSERT_TRUE(ev.stable);

  // Tamper with one service demand AFTER evaluating: the oracle recomputes
  // offered load from the (now lying) model and must spot the mismatch.
  auto tiers = model.tiers();
  auto classes = model.classes();
  classes[0].route[0].base_service = Distribution::from_mean_scv(
      classes[0].route[0].base_service.mean() * 1.10,
      classes[0].route[0].base_service.scv());
  const ClusterModel tampered(std::move(tiers), std::move(classes));

  EXPECT_FALSE(check::check_utilization_law(tampered, f, ev).passed);
  EXPECT_TRUE(check::check_utilization_law(model, f, ev).passed);
}

TEST(AnalyticOracleDetection, ConservationLawCatchesInflatedWait) {
  const auto model = make_enterprise_model(0.7);
  const auto f = model.max_frequencies();
  auto ev = model.evaluate(f);
  ASSERT_TRUE(ev.stable);
  ASSERT_TRUE(check::check_conservation_law(model, f, ev).passed);

  // Inflate one class's wait at the single-server db tier (index 2): the
  // rho-weighted aggregate no longer telescopes to rho W0 / (1 - rho).
  ev.net.station_wait[2][0] *= 1.05;
  EXPECT_FALSE(check::check_conservation_law(model, f, ev).passed);
}

TEST(AnalyticOracleDetection, WorkConservationCatchesTamperedEvaluation) {
  const auto model = make_enterprise_model(0.7);
  const auto f = model.max_frequencies();
  const auto fcfs = model.with_discipline(Discipline::kFcfs).evaluate(f);
  auto prio =
      model.with_discipline(Discipline::kNonPreemptivePriority).evaluate(f);
  ASSERT_TRUE(fcfs.stable && prio.stable);
  ASSERT_TRUE(check::check_work_conservation(model, fcfs, prio).passed);

  // A scheduler that destroyed work (cut the high-priority wait without
  // anyone paying for it) would violate the identity.
  prio.net.station_wait[2][0] *= 0.5;
  EXPECT_FALSE(check::check_work_conservation(model, fcfs, prio).passed);
}

TEST(AnalyticOracleDetection, EnergyBalanceCatchesLeakedEnergy) {
  const auto model = make_enterprise_model(0.7);
  auto ev = model.evaluate(model.max_frequencies());
  ASSERT_TRUE(ev.stable);
  ASSERT_TRUE(check::check_energy_balance(model, ev).passed);

  auto leaked = ev;
  leaked.energy.per_request_energy[1] *= 1.02;
  EXPECT_FALSE(check::check_energy_balance(model, leaked).passed);

  auto skimmed = ev;
  skimmed.energy.station_avg_power[0] *= 0.97;
  EXPECT_FALSE(check::check_energy_balance(model, skimmed).passed);
}

// ---- simulation-side oracles ----------------------------------------------

class SimOracleFixture : public ::testing::Test {
 protected:
  SimOracleFixture() {
    const auto model = core::make_enterprise_model(0.7);
    config_ = model.to_sim_config(model.max_frequencies(), 50.0, 550.0, 7);
    result_ = sim::simulate(config_);
  }
  sim::SimConfig config_;
  sim::SimResult result_;
};

TEST_F(SimOracleFixture, AllSimulationOraclesHold) {
  const auto report = check::check_simulation(config_, result_);
  EXPECT_TRUE(report.all_passed()) << "worst " << report.worst_violation();
  for (const char* id :
       {"little-law", "flow-conservation", "energy-balance-sim"})
    ASSERT_NE(report.find(id), nullptr) << id;
}

TEST_F(SimOracleFixture, LittleLawCatchesCorruptedQueueLength) {
  ASSERT_TRUE(check::check_little_law(config_, result_).passed);
  auto corrupted = result_;
  corrupted.stations[1].mean_queue_len =
      corrupted.stations[1].mean_queue_len * 1.5 + 1.0;
  EXPECT_FALSE(check::check_little_law(config_, corrupted).passed);
}

TEST_F(SimOracleFixture, FlowConservationCatchesLostRequest) {
  ASSERT_TRUE(check::check_flow_conservation(config_, result_).passed);
  auto corrupted = result_;
  corrupted.classes[0].arrived += 1;  // one arrival never accounted for
  const auto c = check::check_flow_conservation(config_, corrupted);
  EXPECT_FALSE(c.passed);
  EXPECT_GE(c.worst_violation, 1.0);
}

TEST_F(SimOracleFixture, EnergyBalanceCatchesMisattributedJoules) {
  ASSERT_TRUE(check::check_energy_balance_sim(config_, result_).passed);
  auto corrupted = result_;
  for (auto& c : corrupted.classes) c.mean_e2e_energy *= 1.25;
  EXPECT_FALSE(check::check_energy_balance_sim(config_, corrupted).passed);
}

}  // namespace
}  // namespace cpm
