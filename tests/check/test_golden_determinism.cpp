// Golden-value determinism: a fixed-seed simulation and the deterministic
// optimisers must reproduce these stored metrics BIT FOR BIT, forever.
// Any divergence means the change altered numerics (event ordering, RNG
// consumption, accumulation order, solver iteration) — which may be fine,
// but must be a conscious decision: regenerate the literals and say so in
// the commit. The values were produced by this very code; x86-64 GCC
// Release is the reference environment (no -ffast-math anywhere).
#include <gtest/gtest.h>

#include "cpm/core/cpm.hpp"

namespace cpm {
namespace {

TEST(GoldenDeterminism, FixedSeedSimulationIsBitForBitStable) {
  const auto model = core::make_enterprise_model(0.7);
  auto cfg = model.to_sim_config(model.max_frequencies(), 50.0, 550.0,
                                 20110516);
  cfg.audit = true;  // the audit hooks must not perturb the statistics
  const auto r = sim::simulate(cfg);

  EXPECT_EQ(r.events_fired, 50304u);
  ASSERT_EQ(r.classes.size(), 3u);

  EXPECT_EQ(r.classes[0].completed, 2343u);
  EXPECT_EQ(r.classes[1].completed, 3352u);
  EXPECT_EQ(r.classes[2].completed, 5753u);
  EXPECT_EQ(r.classes[0].arrived, 2343u);
  EXPECT_EQ(r.classes[1].arrived, 3354u);
  EXPECT_EQ(r.classes[2].arrived, 5756u);

  EXPECT_EQ(r.classes[0].mean_e2e_delay.value(), 0.098099850875314462);
  EXPECT_EQ(r.classes[1].mean_e2e_delay.value(), 0.13381440243186757);
  EXPECT_EQ(r.classes[2].mean_e2e_delay.value(), 0.23640063427960029);
  EXPECT_EQ(r.classes[0].mean_e2e_energy.value(), 5.5320839639529398);
  EXPECT_EQ(r.classes[1].mean_e2e_energy.value(), 7.4958250699073474);
  EXPECT_EQ(r.classes[2].mean_e2e_energy.value(), 8.6299522348431648);

  EXPECT_EQ(r.mean_e2e_delay.value(), 0.17796460804442332);
  EXPECT_EQ(r.cluster_avg_power.value(), 775.62392622996094);
}

TEST(GoldenDeterminism, ContinuousDelayOptimizerIsStable) {
  const auto model = core::make_enterprise_model(0.6);
  EXPECT_EQ(model.power_at(model.max_frequencies()).value(), 751.47540983606552);

  const auto pd = core::minimize_delay_with_power_budget(model, units::watts(700.0));
  ASSERT_TRUE(pd.feasible);
  EXPECT_EQ(pd.mean_delay.value(), 0.19973932428779939);
  EXPECT_EQ(pd.power.value(), 699.99999999997192);
  ASSERT_EQ(pd.frequencies.size(), 3u);
  EXPECT_EQ(pd.frequencies[0], 0.59999999999999998);
  EXPECT_EQ(pd.frequencies[1], 0.77622265214761965);
  EXPECT_EQ(pd.frequencies[2], 0.97917498259014235);
}

TEST(GoldenDeterminism, ContinuousEnergyOptimizerIsStable) {
  const auto model = core::make_enterprise_model(0.6);
  const auto pe =
      core::minimize_power_with_delay_bound(model, units::seconds(0.5));
  ASSERT_TRUE(pe.feasible);
  EXPECT_EQ(pe.mean_delay.value(), 0.49999999999999972);
  EXPECT_EQ(pe.power.value(), 662.61598707053429);
  ASSERT_EQ(pe.frequencies.size(), 3u);
  EXPECT_EQ(pe.frequencies[0], 0.60000000000000009);
  EXPECT_EQ(pe.frequencies[1], 0.60000000000000009);
  EXPECT_EQ(pe.frequencies[2], 0.70338277309905128);
}

TEST(GoldenDeterminism, ContinuousPerClassEnergyOptimizerIsStable) {
  const auto model = core::make_enterprise_model(0.6);
  const auto pe = core::minimize_power_with_class_delay_bounds(
      model, {units::seconds(0.15), units::seconds(0.3), units::seconds(1.5)});
  ASSERT_TRUE(pe.feasible);
  EXPECT_EQ(pe.mean_delay.value(), 0.31369833509396089);
  EXPECT_EQ(pe.power.value(), 674.66319904381112);
  ASSERT_EQ(pe.evaluation.net.e2e_delay.size(), 3u);
  EXPECT_EQ(pe.evaluation.net.e2e_delay[0].value(), 0.14999999999999999);
  EXPECT_EQ(pe.evaluation.net.e2e_delay[1].value(), 0.20765071917586256);
  EXPECT_EQ(pe.evaluation.net.e2e_delay[2].value(), 0.44280623868240426);
  ASSERT_EQ(pe.frequencies.size(), 3u);
  EXPECT_EQ(pe.frequencies[0], 0.59999999999999998);
  EXPECT_EQ(pe.frequencies[1], 0.68958149898729948);
  EXPECT_EQ(pe.frequencies[2], 0.78726211545965352);
}

TEST(GoldenDeterminism, DiscreteEnergyOptimizerIsStable) {
  const auto model = core::make_enterprise_model(0.6);
  const auto pe = core::minimize_power_with_delay_bound(model, units::seconds(0.5), 7);
  ASSERT_TRUE(pe.feasible);
  EXPECT_EQ(pe.mean_delay.value(), 0.4207537697830373);
  EXPECT_EQ(pe.power.value(), 665.19781420765025);
  ASSERT_EQ(pe.frequencies.size(), 3u);
  EXPECT_EQ(pe.frequencies[0], 0.59999999999999998);
  EXPECT_EQ(pe.frequencies[1], 0.59999999999999998);
  EXPECT_EQ(pe.frequencies[2], 0.73333333333333328);
}

TEST(GoldenDeterminism, CostOptimizerIsStable) {
  const auto model = core::make_enterprise_model(0.6);
  const auto pc = core::minimize_cost_for_slas(model);
  ASSERT_TRUE(pc.feasible);
  EXPECT_EQ(pc.total_cost, 5.0);
  EXPECT_EQ(pc.servers, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(pc.nodes_explored, 139);
}

}  // namespace
}  // namespace cpm
