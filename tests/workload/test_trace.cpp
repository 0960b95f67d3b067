#include "cpm/workload/trace.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/queueing/basic.hpp"
#include "cpm/sim/simulator.hpp"

namespace cpm::workload {
namespace {

TEST(ArrivalTrace, FromTimestampsSorts) {
  const auto t = ArrivalTrace::from_timestamps({3.0, 1.0, 2.0});
  EXPECT_EQ(t.timestamps(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(ArrivalTrace, ParseCsvBasics) {
  const auto t = ArrivalTrace::parse_csv(
      "# a log\n"
      "timestamp\n"   // header tolerated
      "0.5\n"
      "  1.25  \n"
      "\n"
      "2.0\r\n");
  EXPECT_EQ(t.timestamps(), (std::vector<double>{0.5, 1.25, 2.0}));
}

TEST(ArrivalTrace, ParseCsvErrorsCarryLineNumbers) {
  try {
    ArrivalTrace::parse_csv("1.0\n2.0\noops\n");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_THROW(ArrivalTrace::parse_csv("1.0\n-2.0\n"), Error);
  EXPECT_THROW(ArrivalTrace::parse_csv("1.0\n"), Error);  // one arrival
}

TEST(ArrivalTrace, PoissonStatsLookPoisson) {
  const auto t = ArrivalTrace::poisson(units::per_second(5.0), 2000.0, 7);
  const auto s = t.stats();
  EXPECT_NEAR(s.mean_rate.value(), 5.0, 0.25);
  EXPECT_NEAR(s.interarrival_scv, 1.0, 0.1);  // exponential gaps
  EXPECT_LT(s.peak_to_mean, 1.5);
  EXPECT_GT(s.count, 9000u);
}

TEST(ArrivalTrace, BurstyTraceHasHighScv) {
  // Alternating dense bursts and long silences.
  // 10 dense bursts separated by long silences: with the stats binning of
  // 100 slots, each burst concentrates in ~1 of every 10 slots.
  std::vector<double> times;
  double t = 0.0;
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 50; ++i) times.push_back(t += 0.01);
    t += 50.0;
  }
  const auto trace = ArrivalTrace::from_timestamps(std::move(times));
  const auto s = trace.stats();
  EXPECT_GT(s.interarrival_scv, 5.0);
  EXPECT_GT(s.peak_to_mean, 3.0);
}

TEST(ArrivalTrace, RateScheduleIntegratesToCount) {
  const auto t = ArrivalTrace::poisson(units::per_second(3.0), 500.0, 9);
  const auto sched = t.to_rate_schedule(50);
  const double expected =
      sched.expected_arrivals(0.0, sched.horizon());
  EXPECT_NEAR(expected, static_cast<double>(t.stats().count), 1.0);
}

TEST(TraceReplay, SimulatorReplaysExactCount) {
  const auto trace = ArrivalTrace::poisson(units::per_second(0.5), 1000.0, 11);
  sim::SimConfig cfg;
  cfg.stations = {sim::SimStation{"s", 1, queueing::Discipline::kFcfs,
                                  units::watts(0.0), units::watts(0.0), 1.0}};
  sim::SimClass cls;
  cls.name = "replay";
  cls.route = {queueing::Visit{0, Distribution::exponential(0.2)}};
  cls.arrival_times = trace.timestamps();
  cfg.classes = {cls};
  cfg.warmup_time = 0.0;
  cfg.end_time = 1100.0;  // past the last arrival -> everything completes
  cfg.seed = 3;
  const auto r = sim::simulate(cfg);
  EXPECT_EQ(r.classes[0].completed, trace.stats().count);
}

TEST(TraceReplay, PoissonTraceMatchesPoissonTheory) {
  // Replaying a Poisson trace must reproduce M/M/1 behaviour.
  const auto trace = ArrivalTrace::poisson(units::per_second(0.5), 4000.0, 13);
  sim::SimConfig cfg;
  cfg.stations = {sim::SimStation{"s", 1, queueing::Discipline::kFcfs,
                                  units::watts(0.0), units::watts(0.0), 1.0}};
  sim::SimClass cls;
  cls.name = "replay";
  cls.route = {queueing::Visit{0, Distribution::exponential(1.0)}};
  cls.arrival_times = trace.timestamps();
  cfg.classes = {cls};
  cfg.warmup_time = 200.0;
  cfg.end_time = 4000.0;
  cfg.seed = 3;
  const auto r = sim::simulate(cfg);
  const double theory = queueing::mm1(0.5, 1.0).mean_sojourn;
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), theory, 0.15 * theory);
}

TEST(TraceReplay, ValidationRejectsUnsortedTrace) {
  sim::SimConfig cfg;
  cfg.stations = {sim::SimStation{"s", 1, queueing::Discipline::kFcfs,
                                  units::watts(0.0), units::watts(0.0), 1.0}};
  sim::SimClass cls;
  cls.name = "bad";
  cls.route = {queueing::Visit{0, Distribution::exponential(0.2)}};
  cls.arrival_times = {2.0, 1.0};
  cfg.classes = {cls};
  cfg.end_time = 10.0;
  EXPECT_THROW(sim::simulate(cfg), Error);
}

}  // namespace
}  // namespace cpm::workload
