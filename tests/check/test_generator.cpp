// ModelGenerator: deterministic streams of random-but-stable models whose
// shape respects the configured envelopes. The 200-model sweep at the end
// is the fuzz gate the CI job reruns through `cpmctl check --random`.
#include <gtest/gtest.h>

#include <algorithm>

#include "cpm/check/differential.hpp"
#include "cpm/check/generator.hpp"
#include "cpm/common/error.hpp"
#include "cpm/core/model_io.hpp"
#include "cpm/core/preconditions.hpp"

namespace cpm {
namespace {

TEST(ModelGenerator, DeterministicInSeed) {
  check::ModelGenerator a(42);
  check::ModelGenerator b(42);
  for (int i = 0; i < 5; ++i) {
    const auto ma = a.next();
    const auto mb = b.next();
    EXPECT_EQ(core::model_to_json(ma).dump(), core::model_to_json(mb).dump())
        << "model " << i;
  }
  EXPECT_EQ(a.generated(), 5u);

  // A different seed must give a different stream (overwhelmingly likely).
  check::ModelGenerator c(43);
  EXPECT_NE(core::model_to_json(check::ModelGenerator(42).next()).dump(),
            core::model_to_json(c.next()).dump());
}

TEST(ModelGenerator, MatchesFreeFunctionDrawForDraw) {
  Rng rng(77);
  const auto direct = check::random_model(rng);
  check::ModelGenerator gen(77);
  EXPECT_EQ(core::model_to_json(direct).dump(),
            core::model_to_json(gen.next()).dump());
}

TEST(ModelGenerator, RespectsEnvelopes) {
  check::GeneratorOptions opt;
  opt.min_tiers = 2;
  opt.max_tiers = 4;
  opt.min_classes = 2;
  opt.max_classes = 2;
  opt.min_servers = 2;
  opt.max_servers = 5;
  opt.disciplines = {queueing::Discipline::kFcfs};
  opt.util_cap = 0.5;
  check::ModelGenerator gen(7, opt);
  for (int i = 0; i < 50; ++i) {
    const auto m = gen.next();
    EXPECT_GE(m.num_tiers(), 2u);
    EXPECT_LE(m.num_tiers(), 4u);
    EXPECT_EQ(m.num_classes(), 2u);
    for (const auto& t : m.tiers()) {
      EXPECT_GE(t.servers, 2);
      EXPECT_LE(t.servers, 5);
      EXPECT_EQ(t.discipline, queueing::Discipline::kFcfs);
    }
    // Rescaling pins the bottleneck exactly at the cap.
    const auto utils = core::tier_utilizations(m, m.max_frequencies());
    EXPECT_NEAR(*std::max_element(utils.begin(), utils.end()), 0.5, 1e-12);
  }
}

TEST(ModelGenerator, EveryGeneratedModelIsStable) {
  check::ModelGenerator gen(2026);
  for (int i = 0; i < 100; ++i) {
    const auto m = gen.next();
    EXPECT_TRUE(m.evaluate(m.max_frequencies()).stable) << "model " << i;
  }
}

TEST(GeneratorOptions, NonsenseEnvelopesAreRejected) {
  const auto bad = [](auto mutate) {
    check::GeneratorOptions opt;
    mutate(opt);
    return opt;
  };
  EXPECT_THROW(check::validate_options(bad([](auto& o) { o.min_tiers = 0; })),
               Error);
  EXPECT_THROW(
      check::validate_options(bad([](auto& o) { o.max_tiers = o.min_tiers - 1; })),
      Error);
  EXPECT_THROW(
      check::validate_options(bad([](auto& o) { o.disciplines.clear(); })),
      Error);
  EXPECT_THROW(check::validate_options(bad([](auto& o) { o.util_cap = 1.0; })),
               Error);
  EXPECT_THROW(
      check::validate_options(
          bad([](auto& o) { o.min_rate = units::per_second(-1.0); })),
      Error);
  EXPECT_THROW(
      check::validate_options(bad([](auto& o) { o.max_demand_mean = 0.005; })),
      Error);
  EXPECT_NO_THROW(check::validate_options(check::GeneratorOptions{}));
}

// The acceptance gate: the analytic oracle battery over >= 200 generated
// stable models, with the simulation differential sampled along the way.
TEST(RandomModelSweep, TwoHundredModelsSatisfyEveryInvariant) {
  core::SimSettings settings;
  settings.replications = 3;
  settings.end_time = 300.0;
  const auto report =
      check::sweep_random_models(20110516, 200, {}, /*sim_every=*/40, settings);
  EXPECT_TRUE(report.all_passed()) << "worst " << report.worst_violation();
  ASSERT_NE(report.find("utilization-law"), nullptr);
  ASSERT_NE(report.find("diff-delay"), nullptr);  // sim leg actually ran
}

}  // namespace
}  // namespace cpm
