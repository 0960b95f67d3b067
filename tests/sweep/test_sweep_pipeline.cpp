#include "cpm/sweep/pipeline.hpp"

#include <gtest/gtest.h>

#include "cpm/common/error.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/core/model_io.hpp"
#include "cpm/core/optimizers.hpp"
#include "cpm/queueing/mva.hpp"

namespace cpm::sweep {
namespace {

SweepSpec spec_with(Json pipeline) {
  SweepSpec spec;
  spec.name.push_back('t');  // not `= "t"`: GCC 12's -Wrestrict misreads it
  spec.model = core::model_to_json(core::make_enterprise_model(0.6));
  spec.pipeline = std::move(pipeline);
  return spec;
}

Json pipeline_json(const std::string& kind) {
  JsonObject p;
  p["kind"] = Json(kind);
  return Json(std::move(p));
}

core::ClusterModel model() { return core::make_enterprise_model(0.6); }

TEST(SweepPipelineKind, RequiresKind) {
  EXPECT_THROW((void)pipeline_kind(Json::parse("{}")), Error);
  EXPECT_EQ(pipeline_kind(pipeline_json("evaluate")), "evaluate");
  EXPECT_TRUE(pipeline_needs_model("evaluate"));
  EXPECT_FALSE(pipeline_needs_model("mva"));
}

TEST(SweepApplyParams, RateScaleMatchesWithRateScale) {
  const auto m = model();
  const auto scaled = apply_model_params(m, {{"rate_scale", 0.5}});
  const auto expected = m.with_rate_scale(0.5);
  for (std::size_t k = 0; k < m.num_classes(); ++k)
    EXPECT_DOUBLE_EQ(scaled.classes()[k].rate.value(), expected.classes()[k].rate.value());
}

TEST(SweepApplyParams, PerClassRateOverridesOneClass) {
  const auto m = model();
  const std::string first = m.classes()[0].name;
  const auto changed = apply_model_params(m, {{"rate:" + first, 2.5}});
  EXPECT_DOUBLE_EQ(changed.classes()[0].rate.value(), 2.5);
  for (std::size_t k = 1; k < m.num_classes(); ++k)
    EXPECT_DOUBLE_EQ(changed.classes()[k].rate.value(), m.classes()[k].rate.value());
}

TEST(SweepApplyParams, PerTierServersOverride) {
  const auto m = model();
  const std::string tier = m.tiers()[1].name;
  const auto changed = apply_model_params(m, {{"servers:" + tier, 7.0}});
  EXPECT_EQ(changed.tiers()[1].servers, 7);
  EXPECT_EQ(changed.tiers()[0].servers, m.tiers()[0].servers);
}

TEST(SweepApplyParams, RejectsBadValues) {
  const auto m = model();
  EXPECT_THROW((void)apply_model_params(m, {{"rate_scale", 0.0}}), Error);
  EXPECT_THROW((void)apply_model_params(m, {{"rate:nope", 1.0}}), Error);
  EXPECT_THROW((void)apply_model_params(m, {{"servers:nope", 2.0}}), Error);
  const std::string tier = m.tiers()[0].name;
  EXPECT_THROW((void)apply_model_params(m, {{"servers:" + tier, 2.5}}), Error);
}

TEST(SweepPipelineRun, EvaluateMatchesDirectEvaluation) {
  const auto m = model();
  const auto spec = spec_with(pipeline_json("evaluate"));
  const Json r = run_point(spec, &m, {}, 1);
  const auto direct = m.evaluate(m.max_frequencies());
  ASSERT_TRUE(r.at("stable").as_bool());
  EXPECT_DOUBLE_EQ(r.at("mean_e2e_delay").as_number(),
                   direct.net.mean_e2e_delay.value());
  EXPECT_DOUBLE_EQ(r.at("cluster_power").as_number(),
                   direct.energy.cluster_avg_power.value());
}

TEST(SweepPipelineRun, EvaluateHonoursFrequencyOverride) {
  const auto m = model();
  const auto spec = spec_with(pipeline_json("evaluate"));
  const std::string tier = m.tiers()[0].name;
  auto f = m.max_frequencies();
  f[0] = 0.8 * f[0];
  const Json r = run_point(spec, &m, {{"freq:" + tier, f[0]}}, 1);
  const auto direct = m.evaluate(f);
  EXPECT_DOUBLE_EQ(r.at("mean_e2e_delay").as_number(),
                   direct.net.mean_e2e_delay.value());
  EXPECT_DOUBLE_EQ(r.at("frequencies").at(tier).as_number(), f[0]);
}

TEST(SweepPipelineRun, OptimizeDelayMatchesOptimizer) {
  const auto m = model();
  JsonObject p;
  p["kind"] = Json("optimize-delay");
  p["baseline"] = Json("uniform");
  const auto spec = spec_with(Json(std::move(p)));

  const double frac = 0.5;
  const Json r = run_point(spec, &m, {{"power_budget_frac", frac}}, 1);
  const double p_min = m.power_at(m.min_stable_frequencies()).value();
  const double p_max = m.power_at(m.max_frequencies()).value();
  const double budget = p_min + frac * (p_max - p_min);
  const auto direct = core::minimize_delay_with_power_budget(m, units::watts(budget));

  ASSERT_TRUE(r.at("feasible").as_bool());
  EXPECT_DOUBLE_EQ(r.at("power_budget").as_number(), budget);
  EXPECT_DOUBLE_EQ(r.at("mean_delay").as_number(), direct.mean_delay.value());
  EXPECT_TRUE(r.at("baseline").at("feasible").as_bool());
  EXPECT_GE(r.at("baseline").at("gain_pct").as_number(), 0.0);
}

TEST(SweepPipelineRun, OptimizePowerMatchesOptimizer) {
  const auto m = model();
  JsonObject p;
  p["kind"] = Json("optimize-power");
  p["baseline"] = Json("no-dvfs");
  const auto spec = spec_with(Json(std::move(p)));

  const double factor = 2.0;
  const Json r = run_point(spec, &m, {{"delay_bound_factor", factor}}, 1);
  const double bound = factor * m.mean_delay_at(m.max_frequencies()).value();
  const auto direct = core::minimize_power_with_delay_bound(m, units::seconds(bound));

  ASSERT_TRUE(r.at("feasible").as_bool());
  EXPECT_DOUBLE_EQ(r.at("delay_bound").as_number(), bound);
  EXPECT_DOUBLE_EQ(r.at("power").as_number(), direct.power.value());
  EXPECT_GT(r.at("baseline").at("saving_pct").as_number(), 0.0);
}

TEST(SweepPipelineRun, OptimizeDelayAbsoluteBudgetAndLevels) {
  const auto m = model();
  const double p_max = m.power_at(m.max_frequencies()).value();
  JsonObject p;
  p["kind"] = Json("optimize-delay");
  p["power_budget"] = Json(p_max);  // fixed option, not an axis
  p["levels"] = Json(5);
  p["audit"] = Json(true);
  const auto spec = spec_with(Json(std::move(p)));
  const Json r = run_point(spec, &m, {}, 1);
  ASSERT_TRUE(r.at("feasible").as_bool());
  EXPECT_DOUBLE_EQ(r.at("power_budget").as_number(), p_max);
  const auto direct =
      core::minimize_delay_with_power_budget(m, units::watts(p_max), 5);
  EXPECT_DOUBLE_EQ(r.at("mean_delay").as_number(), direct.mean_delay.value());
  EXPECT_TRUE(r.at("audit").at("passed").as_bool());
}

TEST(SweepPipelineRun, OptimizeDelayMissingBudgetThrows) {
  const auto m = model();
  const auto spec = spec_with(pipeline_json("optimize-delay"));
  EXPECT_THROW((void)run_point(spec, &m, {}, 1), Error);
}

TEST(SweepPipelineRun, OptimizePowerAbsoluteBoundAndLevels) {
  const auto m = model();
  const double bound = 3.0 * m.mean_delay_at(m.max_frequencies()).value();
  JsonObject p;
  p["kind"] = Json("optimize-power");
  p["delay_bound"] = Json(bound);
  p["levels"] = Json(5);
  p["audit"] = Json(true);
  const auto spec = spec_with(Json(std::move(p)));
  const Json r = run_point(spec, &m, {}, 1);
  ASSERT_TRUE(r.at("feasible").as_bool());
  const auto direct =
      core::minimize_power_with_delay_bound(m, units::seconds(bound), 5);
  EXPECT_DOUBLE_EQ(r.at("power").as_number(), direct.power.value());
  EXPECT_TRUE(r.at("audit").at("passed").as_bool());
}

TEST(SweepPipelineRun, SizeMatchesCostOptimizer) {
  const auto m = model();
  JsonObject p;
  p["kind"] = Json("size");
  p["greedy"] = Json(true);
  p["audit"] = Json(true);
  const auto spec = spec_with(Json(std::move(p)));
  const Json r = run_point(spec, &m, {{"max_servers", 6.0}}, 1);

  core::CostOptOptions opts;
  opts.max_servers_per_tier = 6;
  opts.greedy_only = true;
  const auto direct = core::minimize_cost_for_slas(m, opts);
  ASSERT_EQ(r.at("feasible").as_bool(), direct.feasible);
  if (direct.feasible) {
    EXPECT_DOUBLE_EQ(r.at("total_cost").as_number(), direct.total_cost);
    for (std::size_t i = 0; i < m.num_tiers(); ++i)
      EXPECT_EQ(static_cast<int>(
                    r.at("servers").at(m.tiers()[i].name).as_number()),
                direct.servers[i]);
    EXPECT_TRUE(r.at("audit").at("passed").as_bool());
  }
}

TEST(SweepPipelineRun, SimulateProducesConfidenceIntervals) {
  const auto m = model();
  JsonObject p;
  p["kind"] = Json("simulate");
  p["time"] = Json(80.0);
  p["warmup"] = Json(20.0);
  p["reps"] = Json(2);
  const auto spec = spec_with(Json(std::move(p)));
  const Json r = run_point(spec, &m, {}, 42);
  EXPECT_EQ(static_cast<int>(r.at("replications").as_number()), 2);
  EXPECT_GT(r.at("mean_e2e_delay").at("mean").as_number(), 0.0);
  EXPECT_GT(r.at("cluster_power").at("mean").as_number(), 0.0);
  for (std::size_t k = 0; k < m.num_classes(); ++k) {
    const auto& c = r.at("classes").at(m.classes()[k].name);
    EXPECT_GT(c.at("completed").as_number(), 0.0);
    EXPECT_GT(c.at("mean_delay").as_number(), 0.0);
  }
}

TEST(SweepPipelineRun, OnlineRunsScenarioWithPointSeed) {
  const auto m = model();
  JsonObject p;
  p["kind"] = Json("online");
  p["scenario"] = Json::parse(R"({
    "schema": "cpm-scenario/v1",
    "horizon": 60, "warmup": 0, "window": 10, "seed": 1,
    "arrivals": [{"class": "gold", "kind": "constant"},
                 {"class": "silver", "kind": "constant"},
                 {"class": "bronze", "kind": "constant"}],
    "faults": []
  })");
  const auto spec = spec_with(Json(std::move(p)));
  const Json r = run_point(spec, &m, {}, 7);
  EXPECT_GT(r.at("windows").as_number(), 0.0);
  EXPECT_GE(r.at("reoptimizations").as_number(), 0.0);
  for (std::size_t k = 0; k < m.num_classes(); ++k)
    EXPECT_GT(r.at("classes").at(m.classes()[k].name).at("completed")
                  .as_number(),
              0.0);
}

TEST(SweepPipelineRun, OnlineWithoutScenarioThrows) {
  const auto m = model();
  const auto spec = spec_with(pipeline_json("online"));
  EXPECT_THROW((void)run_point(spec, &m, {}, 1), Error);
}

TEST(SweepPipelineRun, MvaSimCrossCheckTracksAnalytic) {
  JsonObject p;
  p["kind"] = Json("mva");
  JsonArray stations;
  JsonObject cpu;
  cpu["name"] = Json("cpu");
  cpu["demand"] = Json(0.2);
  stations.push_back(Json(std::move(cpu)));
  p["stations"] = Json(std::move(stations));
  p["think"] = Json(1.0);
  JsonObject sim_opts;
  sim_opts["warmup"] = Json(100.0);
  sim_opts["time"] = Json(1500.0);
  p["sim"] = Json(std::move(sim_opts));
  SweepSpec spec;
  spec.name = "mva-sim";
  spec.pipeline = Json(std::move(p));

  const Json r = run_point(spec, nullptr, {{"population", 4.0}}, 3);
  ASSERT_TRUE(r.contains("sim"));
  EXPECT_NEAR(r.at("sim").at("throughput").as_number(),
              r.at("throughput").as_number(),
              0.15 * r.at("throughput").as_number());
}

TEST(SweepPipelineRun, MvaRejectsBadStations) {
  SweepSpec spec;
  spec.name = "bad-mva";
  spec.pipeline = pipeline_json("mva");
  // No stations at all.
  EXPECT_THROW((void)run_point(spec, nullptr, {{"population", 2.0}}, 1),
               Error);
  JsonObject p;
  p["kind"] = Json("mva");
  p["stations"] = Json(JsonArray{});
  spec.pipeline = Json(std::move(p));
  EXPECT_THROW((void)run_point(spec, nullptr, {{"population", 2.0}}, 1),
               Error);
}

TEST(SweepPipelineRun, AuditAttachesPassingOracle) {
  const auto m = model();
  JsonObject p;
  p["kind"] = Json("evaluate");
  p["audit"] = Json(true);
  const auto spec = spec_with(Json(std::move(p)));
  const Json r = run_point(spec, &m, {}, 1);
  ASSERT_TRUE(r.contains("audit"));
  EXPECT_TRUE(r.at("audit").at("passed").as_bool());
  EXPECT_GT(r.at("audit").at("invariants").as_number(), 0.0);
}

TEST(SweepPipelineRun, MvaMatchesExactMva) {
  JsonObject p;
  p["kind"] = Json("mva");
  JsonArray stations;
  JsonObject cpu;
  cpu["name"] = Json("cpu");
  cpu["demand"] = Json(0.2);
  stations.push_back(Json(std::move(cpu)));
  JsonObject disk;
  disk["name"] = Json("disk");
  disk["demand"] = Json(0.3);
  stations.push_back(Json(std::move(disk)));
  p["stations"] = Json(std::move(stations));
  p["think"] = Json(2.0);
  SweepSpec spec;
  spec.name = "mva";
  spec.pipeline = Json(std::move(p));

  const Json r = run_point(spec, nullptr, {{"population", 6.0}}, 1);
  const std::vector<queueing::ClosedStation> st = {
      queueing::ClosedStation{"cpu", false, 1},
      queueing::ClosedStation{"disk", false, 1}};
  const auto direct = queueing::exact_mva(st, {0.2, 0.3}, 6, 2.0);
  EXPECT_DOUBLE_EQ(r.at("throughput").as_number(), direct.throughput[0]);
  EXPECT_DOUBLE_EQ(r.at("response_time").as_number(), direct.response_time[0]);
}

TEST(SweepValidate, AcceptsKnownAxesRejectsUnknown) {
  const auto m = model();
  auto spec = spec_with(pipeline_json("evaluate"));
  Axis ok;
  ok.param = "rate_scale";
  ok.values = {0.5, 1.0};
  spec.axes = {ok};
  EXPECT_NO_THROW(validate_pipeline(spec, &m));

  Axis bad = ok;
  bad.param = "power_budget";  // optimize-delay knob, not evaluate's
  spec.axes = {bad};
  EXPECT_THROW(validate_pipeline(spec, &m), Error);
}

TEST(SweepValidate, RequiresPipelineInputs) {
  const auto m = model();
  auto no_budget = spec_with(pipeline_json("optimize-delay"));
  EXPECT_THROW(validate_pipeline(no_budget, &m), Error);

  auto no_bound = spec_with(pipeline_json("optimize-power"));
  EXPECT_THROW(validate_pipeline(no_bound, &m), Error);

  auto no_scenario = spec_with(pipeline_json("online"));
  EXPECT_THROW(validate_pipeline(no_scenario, &m), Error);

  auto unknown = spec_with(pipeline_json("frobnicate"));
  EXPECT_THROW(validate_pipeline(unknown, &m), Error);
}

TEST(SweepValidate, ModelPipelineNeedsModel) {
  auto spec = spec_with(pipeline_json("evaluate"));
  EXPECT_THROW(validate_pipeline(spec, nullptr), Error);
}

TEST(SweepValidate, SizeAcceptsMaxServersAxis) {
  const auto m = model();
  auto spec = spec_with(pipeline_json("size"));
  Axis a;
  a.param = "max_servers";
  a.values = {4, 6};
  spec.axes = {a};
  EXPECT_NO_THROW(validate_pipeline(spec, &m));
}

TEST(SweepValidate, MvaNeedsPopulation) {
  SweepSpec spec;
  spec.name = "m";
  JsonObject p;
  p["kind"] = Json("mva");
  JsonArray stations;
  JsonObject cpu;
  cpu["name"] = Json("cpu");
  cpu["demand"] = Json(0.2);
  stations.push_back(Json(std::move(cpu)));
  p["stations"] = Json(std::move(stations));
  spec.pipeline = Json(std::move(p));
  EXPECT_THROW(validate_pipeline(spec, nullptr), Error);

  Axis a;
  a.param = "population";
  a.values = {1, 2};
  spec.axes = {a};
  EXPECT_NO_THROW(validate_pipeline(spec, nullptr));
}

TEST(SweepValidate, ResolvesTierAndClassNamesEagerly) {
  const auto m = model();
  auto spec = spec_with(pipeline_json("evaluate"));
  Axis a;
  a.param = "freq:no-such-tier";
  a.values = {1.0};
  spec.axes = {a};
  EXPECT_THROW(validate_pipeline(spec, &m), Error);

  a.param = "rate:no-such-class";
  spec.axes = {a};
  EXPECT_THROW(validate_pipeline(spec, &m), Error);
}

}  // namespace
}  // namespace cpm::sweep
