// cpm-scenario/v1 parsing, schedule construction and model resolution —
// including the exact error messages, which are part of the contract
// (cpmctl surfaces them verbatim to the user).
#include <gtest/gtest.h>

#include <string>

#include "cpm/common/error.hpp"
#include "cpm/core/cpm.hpp"
#include "cpm/online/scenario.hpp"

namespace cpm::online {
namespace {

std::string error_of(const std::string& text) {
  try {
    (void)scenario_from_json_text(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioParse, DefaultsWhenFieldsAbsent) {
  const auto s = scenario_from_json_text("{}");
  EXPECT_DOUBLE_EQ(s.horizon, 1000.0);
  EXPECT_DOUBLE_EQ(s.warmup, 0.0);
  EXPECT_DOUBLE_EQ(s.window, 10.0);
  EXPECT_EQ(s.seed, 1u);
  EXPECT_TRUE(s.arrivals.empty());
  EXPECT_TRUE(s.faults.empty());
  EXPECT_DOUBLE_EQ(s.controller.hysteresis, ControllerOptions{}.hysteresis);
}

TEST(ScenarioParse, FullDocumentRoundTrips) {
  const auto s = scenario_from_json_text(R"({
    "schema": "cpm-scenario/v1",
    "horizon": 600, "warmup": 50, "window": 5, "seed": 7,
    "arrivals": [
      {"class": "gold", "kind": "step", "at": 200, "factor": 1.8},
      {"class": "silver", "kind": "ramp", "from": 100, "to": 400, "factor": 2.0},
      {"class": "bronze", "kind": "flash", "spike_start": 300,
       "spike_duration": 60, "factor": 3.0}
    ],
    "faults": [
      {"time": 250, "tier": "db", "kind": "servers-delta", "value": -1},
      {"time": 400, "tier": "db", "kind": "set-capacity", "value": 10}
    ],
    "controller": {"hysteresis": 0.1, "cooldown_windows": 0,
                   "rate_headroom": 1.3, "size_servers": false}
  })");
  EXPECT_DOUBLE_EQ(s.horizon, 600.0);
  EXPECT_DOUBLE_EQ(s.warmup, 50.0);
  EXPECT_DOUBLE_EQ(s.window, 5.0);
  EXPECT_EQ(s.seed, 7u);
  ASSERT_EQ(s.arrivals.size(), 3u);
  EXPECT_EQ(s.arrivals[0].kind, ArrivalShape::Kind::kStep);
  EXPECT_DOUBLE_EQ(s.arrivals[0].at, 200.0);
  EXPECT_EQ(s.arrivals[1].kind, ArrivalShape::Kind::kRamp);
  EXPECT_EQ(s.arrivals[2].kind, ArrivalShape::Kind::kFlash);
  ASSERT_EQ(s.faults.size(), 2u);
  EXPECT_EQ(s.faults[0].kind, sim::FaultKind::kServersDelta);
  EXPECT_EQ(s.faults[0].value, -1);
  EXPECT_EQ(s.faults[1].kind, sim::FaultKind::kSetCapacity);
  EXPECT_DOUBLE_EQ(s.controller.hysteresis, 0.1);
  EXPECT_EQ(s.controller.cooldown_windows, 0);
  EXPECT_DOUBLE_EQ(s.controller.rate_headroom, 1.3);
  EXPECT_FALSE(s.controller.size_servers);
}

TEST(ScenarioParse, ExactErrorMessages) {
  EXPECT_EQ(error_of("[1, 2]"), "scenario: document must be an object");
  EXPECT_EQ(error_of(R"({"schema": "cpm-scenario/v2"})"),
            "scenario: unsupported schema 'cpm-scenario/v2'");
  EXPECT_EQ(error_of(R"({"horizon": 0})"),
            "scenario: horizon must be positive");
  EXPECT_EQ(error_of(R"({"window": -1})"),
            "scenario: window must be positive");
  EXPECT_EQ(error_of(R"({"horizon": 100, "warmup": 100})"),
            "scenario: warmup must be in [0, horizon)");
  EXPECT_EQ(error_of(R"({"arrivals": [{"kind": "step"}]})"),
            "scenario: arrivals entry needs 'class'");
  EXPECT_EQ(error_of(R"({"arrivals": [{"class": "gold", "kind": "sine"}]})"),
            "scenario: unknown arrival kind 'sine' "
            "(expected constant | step | ramp | diurnal | flash)");
  EXPECT_EQ(error_of(R"({"arrivals": [{"class": "gold", "kind": "step"}]})"),
            "scenario: step arrival needs 'at'");
  EXPECT_EQ(error_of(R"({"arrivals": [{"class": "gold", "kind": "ramp",
                                       "from": 10, "to": 5}]})"),
            "scenario: ramp needs to > from");
  EXPECT_EQ(error_of(R"({"arrivals": [{"class": "g"}, {"class": "g"}]})"),
            "scenario: class 'g' has multiple arrivals entries");
  EXPECT_EQ(error_of(R"({"faults": [{"tier": "db", "kind": "set-servers",
                                     "value": 1}]})"),
            "scenario: fault needs 'time'");
  EXPECT_EQ(error_of(R"({"faults": [{"time": 1, "tier": "db",
                                     "kind": "meteor", "value": 1}]})"),
            "scenario: unknown fault kind 'meteor' "
            "(expected servers-delta | set-servers | set-capacity)");
  EXPECT_EQ(error_of(R"({"faults": [{"time": -5, "tier": "db",
                                     "kind": "set-servers", "value": 1}]})"),
            "scenario: fault time must be >= 0");
  // Integer fields are checked before any cast.
  EXPECT_EQ(error_of(R"({"seed": -5})"),
            "Json: -5 is not an integer in [0, 18446744073709551615]");
  EXPECT_EQ(error_of(R"({"controller": {"levels": 1e300}})"),
            "Json: 1e+300 is not an integer in [2, 2147483647]");
}

TEST(BuildSchedule, ConstantScalesTheBaseRate) {
  ArrivalShape shape;
  shape.kind = ArrivalShape::Kind::kConstant;
  shape.factor = 1.5;
  const auto sched = build_schedule(shape, units::per_second(10.0), 1000.0);
  EXPECT_DOUBLE_EQ(sched.rate_at(0.0).value(), 15.0);
  EXPECT_DOUBLE_EQ(sched.rate_at(999.0).value(), 15.0);
}

TEST(BuildSchedule, StepSwitchesAtTheStepTime) {
  ArrivalShape shape;
  shape.kind = ArrivalShape::Kind::kStep;
  shape.at = 500.0;
  shape.factor = 2.0;
  const auto sched = build_schedule(shape, units::per_second(10.0), 1000.0);
  EXPECT_DOUBLE_EQ(sched.rate_at(100.0).value(), 10.0);
  EXPECT_DOUBLE_EQ(sched.rate_at(900.0).value(), 20.0);
  EXPECT_DOUBLE_EQ(sched.max_rate().value(), 20.0);
}

TEST(BuildSchedule, RampInterpolatesBetweenEndpoints) {
  ArrivalShape shape;
  shape.kind = ArrivalShape::Kind::kRamp;
  shape.from = 200.0;
  shape.to = 800.0;
  shape.factor = 3.0;
  const auto sched = build_schedule(shape, units::per_second(10.0), 1000.0);
  EXPECT_DOUBLE_EQ(sched.rate_at(0.0).value(), 10.0);
  EXPECT_DOUBLE_EQ(sched.rate_at(999.0).value(), 30.0);
  const double mid = sched.rate_at(500.0).value();
  EXPECT_GT(mid, 15.0);
  EXPECT_LT(mid, 25.0);
}

TEST(BuildSchedule, FlashCrowdSpikesOnlyDuringTheSpike) {
  ArrivalShape shape;
  shape.kind = ArrivalShape::Kind::kFlash;
  shape.spike_start = 300.0;
  shape.spike_duration = 100.0;
  shape.factor = 4.0;
  const auto sched = build_schedule(shape, units::per_second(10.0), 1000.0);
  EXPECT_DOUBLE_EQ(sched.rate_at(100.0).value(), 10.0);
  EXPECT_DOUBLE_EQ(sched.rate_at(350.0).value(), 40.0);
  EXPECT_DOUBLE_EQ(sched.rate_at(600.0).value(), 10.0);
}

TEST(BuildSchedule, DiurnalPeaksAboveBase) {
  ArrivalShape shape;
  shape.kind = ArrivalShape::Kind::kDiurnal;
  shape.factor = 2.0;
  shape.peak_time = 500.0;
  const auto sched = build_schedule(shape, units::per_second(10.0), 1000.0);
  EXPECT_GT(sched.rate_at(500.0), sched.rate_at(0.0));
  EXPECT_GE(sched.max_rate().value(), 10.0);
}

TEST(CompileFaults, ResolvesTierNamesAgainstTheModel) {
  const auto model = core::make_enterprise_model(0.6);
  Scenario s;
  s.faults = {ScenarioFault{100.0, "db", sim::FaultKind::kServersDelta, -1}};
  const auto events = compile_faults(s, model);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].station, 2);
  EXPECT_EQ(events[0].value, -1);

  s.faults = {ScenarioFault{100.0, "cache", sim::FaultKind::kServersDelta, -1}};
  try {
    (void)compile_faults(s, model);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "scenario: fault names unknown tier 'cache'");
  }
}

TEST(CompileSlaThresholds, ThreeTimesMeanBoundWhenNoPercentile) {
  // Enterprise classes carry mean bounds only (gold 0.25, silver 0.60,
  // bronze 2.00) -> thresholds are 3x those.
  const auto model = core::make_enterprise_model(0.6);
  const auto thresholds = compile_sla_thresholds(model);
  ASSERT_EQ(thresholds.size(), 3u);
  EXPECT_DOUBLE_EQ(thresholds[0].value(), 0.75);
  EXPECT_DOUBLE_EQ(thresholds[1].value(), 1.80);
  EXPECT_DOUBLE_EQ(thresholds[2].value(), 6.00);
}

}  // namespace
}  // namespace cpm::online
