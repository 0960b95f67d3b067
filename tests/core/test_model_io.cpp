#include "cpm/core/model_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cpm/common/error.hpp"

namespace cpm::core {
namespace {

const char* kMinimalModel = R"({
  "tiers": [
    {"name": "web", "servers": 2},
    {"name": "db", "servers": 1, "discipline": "fcfs", "server_cost": 2.5,
     "power": {"idle_watts": 100, "busy_watts": 200, "alpha": 2,
               "f_min": 0.5, "f_max": 1.2, "f_base": 1.0}}
  ],
  "classes": [
    {"name": "gold", "rate": 2.0, "sla": {"max_mean_delay": 0.5},
     "route": [
       {"tier": "web", "service": {"dist": "exponential", "mean": 0.05}},
       {"tier": "db", "service": {"dist": "hyperexp2", "mean": 0.1, "scv": 3}}
     ]},
    {"name": "bronze", "rate": 4.0,
     "route": [
       {"tier": 0, "service": {"mean": 0.08, "scv": 0.5}},
       {"tier": "db", "service": {"dist": "deterministic", "value": 0.05}}
     ]}
  ]
})";

TEST(ModelIo, ParsesMinimalModel) {
  const auto model = model_from_json_text(kMinimalModel);
  ASSERT_EQ(model.num_tiers(), 2u);
  ASSERT_EQ(model.num_classes(), 2u);
  EXPECT_EQ(model.tiers()[0].name, "web");
  EXPECT_EQ(model.tiers()[0].servers, 2);
  EXPECT_EQ(model.tiers()[0].discipline,
            queueing::Discipline::kNonPreemptivePriority);  // default
  EXPECT_EQ(model.tiers()[1].discipline, queueing::Discipline::kFcfs);
  EXPECT_DOUBLE_EQ(model.tiers()[1].server_cost, 2.5);
  EXPECT_DOUBLE_EQ(model.tiers()[1].power.idle_power().value(), 100.0);
  EXPECT_DOUBLE_EQ(model.tiers()[1].power.dvfs().f_max.value(), 1.2);

  const auto& gold = model.classes()[0];
  EXPECT_DOUBLE_EQ(gold.rate.value(), 2.0);
  EXPECT_DOUBLE_EQ(gold.sla.max_mean_e2e_delay.value(), 0.5);
  ASSERT_EQ(gold.route.size(), 2u);
  EXPECT_EQ(gold.route[1].tier, 1);
  EXPECT_NEAR(gold.route[1].base_service.scv(), 3.0, 1e-9);

  const auto& bronze = model.classes()[1];
  EXPECT_FALSE(bronze.sla.bounded());
  EXPECT_EQ(bronze.route[0].tier, 0);  // numeric tier reference
  EXPECT_NEAR(bronze.route[0].base_service.scv(), 0.5, 1e-9);
}

TEST(ModelIo, AbsentPowerFieldsTakeTheTypicalServersValues) {
  // ServerPower::typical_2011_server(): 150 W idle, 250 W busy at f_base,
  // alpha 3, DVFS 0.6-1.0; here only the idle power is given.
  const auto model = model_from_json_text(R"({
    "tiers": [{"name": "t", "power": {"idle_watts": 100}}],
    "classes": [{"name": "c", "rate": 1.0,
                 "route": [{"tier": "t",
                            "service": {"dist": "exponential", "mean": 0.1}}]}]
  })");
  const power::ServerPower& p = model.tiers()[0].power;
  EXPECT_EQ(p.idle_power().value(), 100.0);
  EXPECT_EQ((p.idle_power() + p.dynamic_power(p.dvfs().f_base)).value(), 250.0);
  EXPECT_EQ(p.alpha(), 3.0);
  EXPECT_EQ(p.dvfs().f_min.value(), 0.6);
  EXPECT_EQ(p.dvfs().f_max.value(), 1.0);
  EXPECT_EQ(p.dvfs().f_base.value(), 1.0);
}

TEST(ModelIo, ParsedModelEvaluates) {
  const auto model = model_from_json_text(kMinimalModel);
  const auto ev = model.evaluate(model.max_frequencies());
  EXPECT_TRUE(ev.stable);
  EXPECT_GT(ev.net.mean_e2e_delay.value(), 0.0);
}

TEST(ModelIo, RoundTripPreservesEverything) {
  const auto original = make_enterprise_model(0.6);
  const Json j = model_to_json(original);
  const auto reparsed = model_from_json(Json::parse(j.dump(2)));

  ASSERT_EQ(reparsed.num_tiers(), original.num_tiers());
  ASSERT_EQ(reparsed.num_classes(), original.num_classes());
  for (std::size_t i = 0; i < original.num_tiers(); ++i) {
    EXPECT_EQ(reparsed.tiers()[i].name, original.tiers()[i].name);
    EXPECT_EQ(reparsed.tiers()[i].servers, original.tiers()[i].servers);
    EXPECT_EQ(reparsed.tiers()[i].discipline, original.tiers()[i].discipline);
    EXPECT_NEAR(reparsed.tiers()[i].server_cost, original.tiers()[i].server_cost,
                1e-12);
  }
  // The analytic evaluation is the semantic fingerprint: identical inputs
  // must produce identical delays/power.
  const auto f = original.max_frequencies();
  const auto a = original.evaluate(f);
  const auto b = reparsed.evaluate(f);
  ASSERT_TRUE(a.stable && b.stable);
  for (std::size_t k = 0; k < original.num_classes(); ++k)
    EXPECT_NEAR(a.net.e2e_delay[k].value(), b.net.e2e_delay[k].value(), 1e-9);
  EXPECT_NEAR(a.energy.cluster_avg_power.value(), b.energy.cluster_avg_power.value(), 1e-9);
}

TEST(DistributionIo, AllFamiliesRoundTrip) {
  for (const auto& d :
       {Distribution::deterministic(2.0), Distribution::exponential(0.5),
        Distribution::erlang(4, 2.0), Distribution::gamma(2.5, 3.0),
        Distribution::hyper_exp2(1.0, 4.0), Distribution::uniform(0.5, 1.5),
        Distribution::lognormal(1.0, 2.0), Distribution::pareto(3.5, 2.0)}) {
    const auto rt = distribution_from_json(distribution_to_json(d));
    EXPECT_EQ(rt.kind(), d.kind()) << d.name();
    EXPECT_NEAR(rt.mean(), d.mean(), 1e-9 * d.mean()) << d.name();
    EXPECT_NEAR(rt.scv(), d.scv(), 1e-6 * (1.0 + d.scv())) << d.name();
  }
}

TEST(DisciplineNames, RoundTrip) {
  using queueing::Discipline;
  for (auto d : {Discipline::kFcfs, Discipline::kNonPreemptivePriority,
                 Discipline::kPreemptiveResume, Discipline::kProcessorSharing}) {
    EXPECT_EQ(discipline_from_name(queueing::discipline_name(d)), d);
  }
  EXPECT_THROW(discipline_from_name("lifo"), Error);
}

TEST(ModelIo, PercentileSlaRoundTrips) {
  const char* doc = R"({
    "tiers": [{"name": "a"}],
    "classes": [{"name": "c", "rate": 1,
                 "sla": {"max_percentile_delay": 0.8, "percentile": 0.99},
                 "route": [{"tier": 0, "service": {"mean": 0.1}}]}]
  })";
  const auto model = model_from_json_text(doc);
  EXPECT_FALSE(model.classes()[0].sla.mean_bounded());
  ASSERT_TRUE(model.classes()[0].sla.percentile_bounded());
  EXPECT_DOUBLE_EQ(model.classes()[0].sla.max_percentile_e2e_delay.value(), 0.8);
  EXPECT_DOUBLE_EQ(model.classes()[0].sla.percentile, 0.99);

  const auto rt = model_from_json(model_to_json(model));
  EXPECT_DOUBLE_EQ(rt.classes()[0].sla.max_percentile_e2e_delay.value(), 0.8);
  EXPECT_DOUBLE_EQ(rt.classes()[0].sla.percentile, 0.99);
}

TEST(ModelIo, SchemaErrorsAreSpecific) {
  EXPECT_THROW(model_from_json_text("{}"), Error);
  EXPECT_THROW(model_from_json_text(R"({"tiers": [], "classes": []})"), Error);
  // Unknown tier reference.
  EXPECT_THROW(model_from_json_text(R"({
    "tiers": [{"name": "a"}],
    "classes": [{"name": "c", "rate": 1,
                 "route": [{"tier": "nope", "service": {"mean": 0.1}}]}]
  })"),
               Error);
  // Tier index out of range.
  EXPECT_THROW(model_from_json_text(R"({
    "tiers": [{"name": "a"}],
    "classes": [{"name": "c", "rate": 1,
                 "route": [{"tier": 3, "service": {"mean": 0.1}}]}]
  })"),
               Error);
  // Bad distribution.
  EXPECT_THROW(model_from_json_text(R"({
    "tiers": [{"name": "a"}],
    "classes": [{"name": "c", "rate": 1,
                 "route": [{"tier": 0, "service": {"dist": "cauchy"}}]}]
  })"),
               Error);
  // Server counts are integers; no value reaches an unchecked cast.
  for (const char* servers : {"1e300", "2.5"}) {
    EXPECT_THROW(model_from_json_text(std::string(R"({
      "tiers": [{"name": "a", "servers": )") + servers + R"(}],
      "classes": [{"name": "c", "rate": 1,
                   "route": [{"tier": 0, "service": {"mean": 0.1}}]}]
    })"),
                 Error)
        << servers;
  }
}

}  // namespace
}  // namespace cpm::core
