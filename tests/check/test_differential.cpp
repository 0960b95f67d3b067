// Differential verification: independent implementations must agree.
// check_reductions pins the general analytic code paths to the exact
// special cases they must collapse to; cross_validate pits the whole
// analytic stack against the discrete-event simulator on the paper's
// enterprise scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cpm/check/differential.hpp"
#include "cpm/core/cpm.hpp"

namespace cpm {
namespace {

TEST(Reductions, AllExactSpecialCasesCollapse) {
  const auto report = check::check_reductions();
  EXPECT_TRUE(report.all_passed()) << "worst " << report.worst_violation();
  for (const char* id :
       {"reduction-ggc-mmc", "reduction-gg1-mg1", "reduction-priority-fcfs",
        "reduction-ps-insensitivity"}) {
    const auto* c = report.find(id);
    ASSERT_NE(c, nullptr) << id;
    EXPECT_TRUE(c->passed) << id << " worst " << c->worst_violation;
    // These are arithmetic identities, not approximations: residuals must
    // sit at roundoff, far below even the strict default tolerance.
    EXPECT_LT(c->worst_violation, 1e-12) << id;
  }
}

TEST(CrossValidate, AnalyticAgreesWithSimulationOnEnterpriseModel) {
  const auto model = core::make_enterprise_model(0.7);
  core::SimSettings settings;
  settings.replications = 5;
  const auto report =
      check::cross_validate(model, model.max_frequencies(), settings);
  EXPECT_TRUE(report.all_passed()) << "worst " << report.worst_violation();
  // The differential legs and the in-run sim oracles all reported.
  for (const char* id : {"diff-delay", "diff-power", "diff-utilization",
                         "little-law", "flow-conservation",
                         "energy-balance-sim"})
    ASSERT_NE(report.find(id), nullptr) << id;
}

TEST(CrossValidate, JudgesValidateModelsReport) {
  // The differential rows are residuals between the two sides of
  // validate_model's report under the same settings.
  const auto model = core::make_enterprise_model(0.6);
  const auto f = model.max_frequencies();
  core::SimSettings settings;
  settings.replications = 3;
  settings.end_time = 300.0;
  const auto report = check::cross_validate(model, f, settings);
  const auto v = core::validate_model(model, f, settings);
  const auto residual = [](double sim, double analytic, double floor) {
    return std::abs(sim - analytic) / std::max({std::abs(sim), std::abs(analytic), floor});
  };
  double delay = 0.0;
  for (std::size_t k = 0; k < model.num_classes(); ++k)
    delay = std::max(delay, residual(v.sim.classes[k].mean_e2e_delay.mean,
                                     v.analytic.net.e2e_delay[k].value(), 0.05));
  double util = 0.0;
  for (std::size_t s = 0; s < model.num_tiers(); ++s)
    util = std::max(util, residual(v.sim.station_utilization[s].mean,
                                   v.analytic.net.station_utilization[s], 0.5));
  const double power = residual(v.sim.cluster_avg_power.mean,
                                v.analytic.energy.cluster_avg_power.value(), 1.0);
  ASSERT_NE(report.find("diff-delay"), nullptr);
  ASSERT_NE(report.find("diff-power"), nullptr);
  ASSERT_NE(report.find("diff-utilization"), nullptr);
  EXPECT_GT(delay, 0.0);
  EXPECT_EQ(report.find("diff-delay")->worst_violation, delay);
  EXPECT_EQ(report.find("diff-power")->worst_violation, power);
  EXPECT_EQ(report.find("diff-utilization")->worst_violation, util);
}

TEST(CrossValidate, HoldsAcrossDisciplines) {
  core::SimSettings settings;
  settings.replications = 3;
  settings.end_time = 400.0;
  for (const auto d :
       {queueing::Discipline::kFcfs, queueing::Discipline::kPreemptiveResume,
        queueing::Discipline::kProcessorSharing}) {
    const auto model = core::make_enterprise_model(0.6, d);
    const auto report =
        check::cross_validate(model, model.max_frequencies(), settings);
    EXPECT_TRUE(report.all_passed())
        << "discipline " << static_cast<int>(d) << " worst "
        << report.worst_violation();
  }
}

TEST(CrossValidate, RejectsUnstableOperatingPoint) {
  const auto model = core::make_enterprise_model(0.7).with_rate_scale(5.0);
  EXPECT_THROW(check::cross_validate(model, model.max_frequencies()), Error);
}

TEST(CrossValidate, MergedReportsKeepWorstViolationPerInvariant) {
  check::Report a;
  a.add({"x", true, 0.01, 0.1, "site-a"});
  check::Report b;
  b.add({"x", false, 0.5, 0.1, "site-b"});
  b.add({"y", true, 0.0, 1.0, ""});
  a.merge(b);
  ASSERT_EQ(a.checks().size(), 2u);
  const auto* x = a.find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_FALSE(x->passed);  // one failing subject fails the aggregate
  EXPECT_DOUBLE_EQ(x->worst_violation, 0.5);
  EXPECT_EQ(x->detail, "site-b");
  EXPECT_FALSE(a.all_passed());
  EXPECT_DOUBLE_EQ(a.worst_violation(), 0.5);
}

}  // namespace
}  // namespace cpm
