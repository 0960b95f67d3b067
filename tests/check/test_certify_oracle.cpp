// The certifier under Monte-Carlo attack: over hundreds of generated
// models with random uncertainty boxes, no PROVED box may contain a
// concretely-violating point, every REFUTED witness must re-violate when
// evaluated by the ordinary analyzer, and degenerate boxes must both be
// fully decided and agree with cpm::lint rule for rule.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cpm/check/certify_oracle.hpp"
#include "cpm/check/generator.hpp"
#include "cpm/common/rng.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/core/preconditions.hpp"

namespace cpm::check {
namespace {

std::string details(const Report& report) {
  std::string out;
  for (const auto& c : report.checks())
    if (!c.passed) out += c.invariant + ": " + c.detail + "\n";
  return out;
}

TEST(CertifyOracle, SoundOnTheEnterpriseModel) {
  const auto model = core::make_enterprise_model(0.7);
  Rng rng(20110516);
  const certify::BoxSpec box = random_box(model, rng);
  const Report report = check_certify_soundness(model, box, rng);
  EXPECT_TRUE(report.all_passed()) << details(report);
}

TEST(CertifyOracle, RefutedWitnessIsConcrete) {
  // Force a refutation and check the oracle validates (not just skips)
  // the witness branch.
  const auto model = core::make_enterprise_model(0.7);
  certify::BoxSpec box = certify::default_box(model);
  box.rates[0] = core::Interval{model.classes()[0].rate.value(),
                                model.classes()[0].rate.value() * 100.0};
  Rng rng(7);
  const Report report = check_certify_soundness(model, box, rng);
  EXPECT_TRUE(report.all_passed()) << details(report);
  const certify::CertifyReport cert = certify::certify_model(model, box);
  EXPECT_GT(cert.count(certify::Verdict::kRefuted), 0u);
}

TEST(CertifyOracle, SweepTwoHundredRandomModels) {
  // The acceptance gate: 200 generated models x random boxes, plus the
  // degenerate-box/lint parity invariants, all clean.
  CertifyOracleOptions options;
  options.samples = 16;
  const Report report = sweep_certify_random_models(20110516, 200, options);
  EXPECT_TRUE(report.all_passed()) << details(report);
  // merge() coalesces same-named invariants across models: the sweep must
  // surface exactly the four certifier invariants.
  EXPECT_EQ(report.checks().size(), 4u);
  bool saw_sound = false;
  bool saw_parity = false;
  for (const auto& c : report.checks()) {
    if (c.invariant == "certify-proved-sound") saw_sound = true;
    if (c.invariant == "certify-degenerate-matches-lint") saw_parity = true;
  }
  EXPECT_TRUE(saw_sound);
  EXPECT_TRUE(saw_parity);
}

// `model` with every class's route moved off tier 0 and given a second
// visit, with its own demand, to one of the tiers it still visits: every
// class revisits a tier, whose station merges the visits, and tier 0
// carries no flow. Every class gets a mean SLA between its delay floor at
// f_max and six times that floor.
core::ClusterModel revisiting(const core::ClusterModel& model, Rng& rng) {
  std::vector<core::WorkloadClass> classes = model.classes();
  for (auto& c : classes) {
    std::vector<core::Demand> route;
    for (const auto& d : c.route)
      if (d.tier != 0) route.push_back(d);
    const core::Demand again = route[rng.below(route.size())];
    const double mean = again.base_service.mean() * rng.uniform(0.3, 1.5);
    const double scv = rng.uniform(0.5, 2.0);
    route.push_back(
        core::Demand{again.tier, Distribution::from_mean_scv(mean, scv)});
    c.route = std::move(route);
  }
  core::ClusterModel rerouted(model.tiers(), classes);
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const double floor =
        core::class_delay_floor(rerouted, k, rerouted.max_frequencies())
            .value();
    classes[k].sla.max_mean_e2e_delay =
        units::seconds(floor * rng.uniform(1.0, 6.0));
  }
  return core::ClusterModel(model.tiers(), std::move(classes));
}

TEST(CertifyOracle, SoundOnModelsWithRevisitsAndIdleTiers) {
  // The generator gives every class one visit per tier, so the sweep above
  // never merges visits at a station or leaves a tier without flows. Here
  // every model does both, on random boxes with a power budget around its
  // power at f_max.
  GeneratorOptions options;
  options.min_tiers = 2;
  ModelGenerator generator(20111231, options);
  Rng rng(31);
  CertifyOracleOptions oracle;
  oracle.samples = 16;
  bool merged_visit = false;
  bool idle_tier = false;
  int proved = 0;
  int refuted = 0;
  for (int i = 0; i < 150; ++i) {
    const core::ClusterModel model = revisiting(generator.next(), rng);
    const auto& flows = model.skeleton().flows;
    idle_tier = idle_tier || flows[0].empty();
    for (const auto& station : flows)
      for (const auto& flow : station)
        merged_visit = merged_visit || flow.visits > 1;
    certify::BoxSpec box = random_box(model, rng);
    box.max_power_watts =
        model.power_at(model.max_frequencies()) * rng.uniform(0.6, 1.2);
    SCOPED_TRACE("model " + std::to_string(i));
    const Report report = check_certify_soundness(model, box, rng, oracle);
    EXPECT_TRUE(report.all_passed()) << details(report);
    const certify::CertifyReport cert = certify::certify_model(model, box);
    proved += static_cast<int>(cert.count(certify::Verdict::kProved));
    refuted += static_cast<int>(cert.count(certify::Verdict::kRefuted));
  }
  EXPECT_TRUE(merged_visit);
  EXPECT_TRUE(idle_tier);
  EXPECT_GT(proved, 0);
  EXPECT_GT(refuted, 0);
}

TEST(CertifyOracle, SweepIsDeterministic) {
  CertifyOracleOptions options;
  options.samples = 4;
  const Report a = sweep_certify_random_models(42, 10, options);
  const Report b = sweep_certify_random_models(42, 10, options);
  ASSERT_EQ(a.checks().size(), b.checks().size());
  for (std::size_t i = 0; i < a.checks().size(); ++i) {
    EXPECT_EQ(a.checks()[i].passed, b.checks()[i].passed);
    EXPECT_EQ(a.checks()[i].detail, b.checks()[i].detail);
  }
}

}  // namespace
}  // namespace cpm::check
