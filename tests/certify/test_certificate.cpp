// Optimizer-output certificates: a feasible sizing/frequency solution is
// re-verified statically over an uncertainty box, an uncertified solution
// fires CPM-C010, and the certificate JSON is machine-checkable.
#include <gtest/gtest.h>

#include <string>

#include "cpm/certify/certificate.hpp"
#include "cpm/common/json.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/core/optimizers.hpp"

namespace cpm::certify {
namespace {

TEST(Certificate, FeasibleSizingCertifiesOnTheNominalBox) {
  const auto model = core::make_enterprise_model(0.6);
  const auto solution = core::minimize_cost_for_slas(model, {});
  ASSERT_TRUE(solution.feasible);

  const Certificate cert =
      certify_cost_solution(model, solution, default_box(model));
  EXPECT_EQ(cert.solution, "server-sizing");
  EXPECT_TRUE(cert.optimizer_feasible);
  EXPECT_TRUE(cert.certified);
  EXPECT_EQ(cert.servers, solution.servers);
  EXPECT_TRUE(cert.report.all_proved());
  EXPECT_TRUE(cert.report.diagnostics.diagnostics().empty());
}

TEST(Certificate, SizingSurvivesModestRateUncertainty) {
  const auto model = core::make_enterprise_model(0.6);
  const auto solution = core::minimize_cost_for_slas(model, {});
  ASSERT_TRUE(solution.feasible);

  BoxSpec box = default_box(model);
  for (auto& r : box.rates) r = core::Interval{r.lo * 0.95, r.hi * 1.02};
  const Certificate cert = certify_cost_solution(model, solution, box);
  // The certified claim is about the RESIZED model: stability and SLAs
  // hold for every rate choice in the box.
  for (const auto& p : cert.report.properties)
    EXPECT_NE(p.verdict, Verdict::kRefuted) << p.property;
}

TEST(Certificate, InfeasibleSolutionIsUncertifiedWithC010) {
  // Starve the sizer so it reports infeasible: certificates must not run
  // the prover, and CPM-C010 must gate the exit code.
  auto classes = core::make_enterprise_model(0.6).classes();
  classes[0].sla.max_mean_e2e_delay = units::seconds(1e-6);
  const core::ClusterModel doomed(core::make_enterprise_model(0.6).tiers(),
                                  classes);
  const auto solution = core::minimize_cost_for_slas(doomed, {});
  ASSERT_FALSE(solution.feasible);

  const Certificate cert =
      certify_cost_solution(doomed, solution, default_box(doomed));
  EXPECT_FALSE(cert.certified);
  EXPECT_FALSE(cert.optimizer_feasible);
  ASSERT_EQ(cert.report.diagnostics.diagnostics().size(), 1u);
  const auto& d = cert.report.diagnostics.diagnostics()[0];
  EXPECT_EQ(d.rule_id, "CPM-C010");
  EXPECT_EQ(d.path, "solution");
  EXPECT_NE(d.message.find("not certified"), std::string::npos);
}

TEST(Certificate, RefutedBoxUncertifiesAFeasibleSolution) {
  // The optimizer's point solution is feasible, but a box wide enough to
  // saturate the sized cluster must refute and uncertify it.
  const auto model = core::make_enterprise_model(0.6);
  const auto solution = core::minimize_cost_for_slas(model, {});
  ASSERT_TRUE(solution.feasible);

  BoxSpec box = default_box(model);
  box.rates[0] = core::Interval{model.classes()[0].rate.value(),
                                model.classes()[0].rate.value() * 200.0};
  const Certificate cert = certify_cost_solution(model, solution, box);
  EXPECT_TRUE(cert.optimizer_feasible);
  EXPECT_FALSE(cert.certified);
  EXPECT_GT(cert.report.count(Verdict::kRefuted), 0u);
}

TEST(Certificate, FrequencyPlanPinsTheFrequencyDimensions) {
  const auto model = core::make_enterprise_model(0.6);
  const auto solution = core::minimize_power_with_delay_bound(model, units::seconds(0.5));
  ASSERT_TRUE(solution.feasible);

  BoxSpec box = default_box(model);
  for (auto& f : box.frequencies) f = core::Interval{0.6, 1.0};
  const Certificate cert = certify_frequency_solution(model, solution, box);
  EXPECT_EQ(cert.solution, "frequency-plan");
  EXPECT_EQ(cert.frequencies, solution.frequencies);
  // The certificate evaluates AT the plan's operating point, not over the
  // frequency range the box declared.
  EXPECT_TRUE(cert.certified) << render_certify_text(cert.report, "plan");
}

TEST(Certificate, JsonShape) {
  const auto model = core::make_enterprise_model(0.6);
  const auto solution = core::minimize_cost_for_slas(model, {});
  const BoxSpec box = default_box(model);
  const Certificate cert = certify_cost_solution(model, solution, box);

  const Json doc = Json::parse(certificate_to_json(cert, model, box).dump(2));
  EXPECT_EQ(doc.at("format").as_string(), "cpm-certificate/v1");
  EXPECT_EQ(doc.at("solution").as_string(), "server-sizing");
  EXPECT_TRUE(doc.at("certified").as_bool());
  EXPECT_TRUE(doc.at("optimizer_feasible").as_bool());
  EXPECT_EQ(doc.at("servers").size(), model.num_tiers());
  const Json& report = doc.at("report");
  EXPECT_EQ(report.at("format").as_string(), "cpm-certify/v1");
  EXPECT_TRUE(report.contains("box"));
  EXPECT_TRUE(report.contains("properties"));
  EXPECT_EQ(report.at("verdicts").at("refuted").as_number(), 0.0);
}

}  // namespace
}  // namespace cpm::certify
