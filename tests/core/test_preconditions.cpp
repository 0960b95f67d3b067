#include "cpm/core/preconditions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cpm/common/error.hpp"

namespace cpm::core {
namespace {

// make_enterprise_model's route demands at f_base, per class (gold,
// silver, bronze) and tier (web, app, db), and its traffic mix.
constexpr double kDemand[3][3] = {
    {0.020, 0.015, 0.020}, {0.025, 0.020, 0.030}, {0.030, 0.022, 0.035}};
constexpr double kMix[3] = {0.2, 0.3, 0.5};

TEST(Preconditions, TierBaseLoadsAreOfferedLoadPerServer) {
  const auto model = make_enterprise_model(0.6);
  const std::vector<double> load = tier_base_loads(model);
  ASSERT_EQ(load.size(), 3u);
  const double total = model.total_rate().value();
  for (std::size_t i = 0; i < 3; ++i) {
    double expected = 0.0;
    for (std::size_t k = 0; k < 3; ++k)
      expected += kMix[k] * total * kDemand[k][i];
    expected /= static_cast<double>(model.tiers()[i].servers);
    EXPECT_NEAR(load[i], expected, 1e-12) << "tier " << i;
  }
  EXPECT_NEAR(load[2], 0.6, 1e-12);  // the load parameter sets rho_db
}

TEST(Preconditions, TierUtilizationsScaleInverselyWithFrequency) {
  const auto model = make_enterprise_model(0.6);
  const std::vector<double> load = tier_base_loads(model);
  const std::vector<double> at_max =
      tier_utilizations(model, model.max_frequencies());
  const std::vector<double> at_08 = tier_utilizations(model, {0.8, 0.8, 0.8});
  ASSERT_EQ(at_max.size(), 3u);
  ASSERT_EQ(at_08.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(at_max[i], load[i], 1e-12) << "tier " << i;  // f_max == f_base
    EXPECT_NEAR(at_08[i], load[i] / 0.8, 1e-12) << "tier " << i;
  }

  // A multi-server tier divides its load among its servers.
  const ClusterModel four(
      {Tier{"t", 4, queueing::Discipline::kFcfs}},
      {WorkloadClass{"c", units::per_second(2.0), {Demand{0, Distribution::exponential(1.0)}}}});
  EXPECT_NEAR(tier_utilizations(four, four.max_frequencies())[0], 0.5, 1e-12);
  EXPECT_NEAR(tier_utilizations(four, {0.8})[0], 0.5 / 0.8, 1e-12);
}

TEST(Preconditions, ProbeStabilityReportsTheFirstSaturatedTier) {
  const auto model = make_enterprise_model(0.6);
  EXPECT_TRUE(probe_stability(model, model.max_frequencies()).stable);

  // Scaling every rate by 1.8 puts the database at rho = 1.08.
  const auto overloaded = model.with_rate_scale(1.8);
  const StabilityFinding bad =
      probe_stability(overloaded, overloaded.max_frequencies());
  EXPECT_FALSE(bad.stable);
  EXPECT_EQ(bad.tier, 2u);
  EXPECT_NEAR(bad.rho, 1.08, 1e-12);
}

TEST(Preconditions, RequireStableNamesTheCallerAndTheTier) {
  const auto model = make_enterprise_model(0.6);
  EXPECT_TRUE(evaluate_stable(model, model.max_frequencies(), "here").stable);

  const auto overloaded = model.with_rate_scale(1.8);
  try {
    static_cast<void>(evaluate_stable(overloaded, overloaded.max_frequencies(), "here"));
    FAIL() << "an overloaded tier must throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "here: [CPM-L001] tier 'db' has no steady state "
              "(rho = 1.08 >= 1)");
  }
}

TEST(Preconditions, ClassDelayFloorIsTheRouteDemandAtFrequency) {
  const auto model = make_enterprise_model(0.6);
  const std::vector<double> f_max = model.max_frequencies();
  for (std::size_t k = 0; k < 3; ++k) {
    const double demand = kDemand[k][0] + kDemand[k][1] + kDemand[k][2];
    EXPECT_NEAR(class_delay_floor(model, k, f_max).value(), demand, 1e-15)
        << "class " << k;
    EXPECT_NEAR(class_delay_floor(model, k, {0.8, 0.8, 0.8}).value(),
                demand / 0.8, 1e-15)
        << "class " << k;
  }
}

TEST(Preconditions, MeanTargetIsFeasibleOnlyStrictlyAboveTheFloor) {
  const auto model = make_enterprise_model(0.6);
  const units::Seconds floor =
      class_delay_floor(model, 0, model.max_frequencies());
  EXPECT_FALSE(sla_mean_target_feasible(floor, floor));
  EXPECT_TRUE(sla_mean_target_feasible(
      units::seconds(std::nextafter(floor.value(), 1.0)), floor));
  EXPECT_FALSE(
      sla_mean_target_feasible(units::seconds(0.5 * floor.value()), floor));
}

}  // namespace
}  // namespace cpm::core
