#include "cpm/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/queueing/basic.hpp"
#include "cpm/queueing/erlang.hpp"
#include "cpm/queueing/priority.hpp"

namespace cpm::sim {
namespace {

using queueing::Discipline;
using queueing::Visit;

SimConfig mm1_config(double lambda, double mu, Discipline d = Discipline::kFcfs) {
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 1, d, units::watts(100.0), units::watts(50.0)}};
  cfg.classes = {SimClass{"c", units::per_second(lambda), {Visit{0, Distribution::exponential(1.0 / mu)}}}};
  cfg.warmup_time = 200.0;
  cfg.end_time = 4200.0;
  cfg.seed = 7;
  return cfg;
}

TEST(Simulator, Mm1DelayMatchesTheory) {
  const auto r = simulate(mm1_config(0.5, 1.0));
  const auto theory = queueing::mm1(0.5, 1.0);
  EXPECT_GT(r.classes[0].completed, 1000u);
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), theory.mean_sojourn,
              0.10 * theory.mean_sojourn);
  EXPECT_NEAR(r.stations[0].utilization, 0.5, 0.03);
}

TEST(Simulator, Mm1P95MatchesTheory) {
  // Sojourn of M/M/1 is Exp(mu - lambda); p95 = -ln(0.05)/(mu-lambda).
  const auto r = simulate(mm1_config(0.5, 1.0));
  const double p95 = -std::log(0.05) / 0.5;
  EXPECT_NEAR(r.classes[0].p95_e2e_delay.value(), p95, 0.12 * p95);
}

TEST(Simulator, DeterministicInSeed) {
  const auto a = simulate(mm1_config(0.6, 1.0));
  const auto b = simulate(mm1_config(0.6, 1.0));
  EXPECT_EQ(a.classes[0].completed, b.classes[0].completed);
  EXPECT_DOUBLE_EQ(a.classes[0].mean_e2e_delay.value(), b.classes[0].mean_e2e_delay.value());
  EXPECT_DOUBLE_EQ(a.cluster_avg_power.value(), b.cluster_avg_power.value());
}

TEST(Simulator, DifferentSeedsDiffer) {
  auto cfg = mm1_config(0.6, 1.0);
  const auto a = simulate(cfg);
  cfg.seed = 8;
  const auto b = simulate(cfg);
  EXPECT_NE(a.classes[0].mean_e2e_delay, b.classes[0].mean_e2e_delay);
}

TEST(Simulator, Mg1PollaczekKhinchine) {
  // Deterministic service halves the M/M/1 wait.
  SimConfig cfg = mm1_config(0.7, 1.0);
  cfg.classes[0].route[0].service = Distribution::deterministic(1.0);
  cfg.end_time = 6200.0;
  const auto r = simulate(cfg);
  const auto theory = queueing::mg1(0.7, Distribution::deterministic(1.0));
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), theory.mean_sojourn,
              0.08 * theory.mean_sojourn);
}

TEST(Simulator, MmcMatchesErlangC) {
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 3, Discipline::kFcfs, units::watts(0.0), units::watts(0.0)}};
  cfg.classes = {SimClass{"c", units::per_second(2.4), {Visit{0, Distribution::exponential(1.0)}}}};
  cfg.warmup_time = 200.0;
  cfg.end_time = 4200.0;
  cfg.seed = 11;
  const auto r = simulate(cfg);
  const double theory = queueing::mmc_mean_wait(3, 2.4, 1.0) + 1.0;  // + E[S]
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), theory, 0.08 * theory);
  EXPECT_NEAR(r.stations[0].utilization, 0.8, 0.04);
}

TEST(Simulator, NonPreemptivePriorityMatchesCobham) {
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 1, Discipline::kNonPreemptivePriority, units::watts(0.0), units::watts(0.0)}};
  cfg.classes = {
      SimClass{"hi", units::per_second(0.3), {Visit{0, Distribution::exponential(1.0)}}},
      SimClass{"lo", units::per_second(0.4), {Visit{0, Distribution::exponential(1.0)}}}};
  cfg.warmup_time = 300.0;
  cfg.end_time = 8300.0;
  cfg.seed = 13;
  const auto r = simulate(cfg);
  // Cobham: W_hi = 1.0, W_lo = 10/3 (see analytic tests); sojourn adds E[S].
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), 2.0, 0.12 * 2.0);
  EXPECT_NEAR(r.classes[1].mean_e2e_delay.value(), 10.0 / 3.0 + 1.0, 0.12 * (13.0 / 3.0));
}

TEST(Simulator, PreemptiveResumeShieldsClassZero) {
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 1, Discipline::kPreemptiveResume, units::watts(0.0), units::watts(0.0)}};
  cfg.classes = {
      SimClass{"hi", units::per_second(0.3), {Visit{0, Distribution::exponential(1.0)}}},
      SimClass{"lo", units::per_second(0.5), {Visit{0, Distribution::exponential(1.0)}}}};
  cfg.warmup_time = 300.0;
  cfg.end_time = 8300.0;
  cfg.seed = 17;
  const auto r = simulate(cfg);
  // Class 0 sees a private M/M/1: T = 1/(1 - 0.3).
  const double solo = 1.0 / 0.7;
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), solo, 0.10 * solo);
  // Class 1 suffers: analytic preemptive-resume sojourn.
  const auto m = queueing::analyze_station(
      1, Discipline::kPreemptiveResume,
      {queueing::ClassFlow{units::per_second(0.3), Distribution::exponential(1.0)},
       queueing::ClassFlow{units::per_second(0.5), Distribution::exponential(1.0)}});
  EXPECT_NEAR(r.classes[1].mean_e2e_delay.value(), m.mean_sojourn[1],
              0.15 * m.mean_sojourn[1]);
}

TEST(Simulator, ProcessorSharingMatchesTheory) {
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 1, Discipline::kProcessorSharing, units::watts(0.0), units::watts(0.0)}};
  cfg.classes = {SimClass{"c", units::per_second(0.5), {Visit{0, Distribution::erlang(3, 1.0)}}}};
  cfg.warmup_time = 300.0;
  cfg.end_time = 6300.0;
  cfg.seed = 19;
  const auto r = simulate(cfg);
  // PS sojourn is insensitive: E[S]/(1-rho) = 1/0.5 = 2.
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), 2.0, 0.10 * 2.0);
}

// One trace-driven PS station whose `jobs` arrivals all come at t = 0,
// each with the same `work`; the run records every completion.
SimConfig ps_burst(int servers, int jobs, double work = 1.0) {
  SimConfig cfg;
  cfg.stations = {SimStation{"s", servers, Discipline::kProcessorSharing,
                             units::watts(0.0), units::watts(0.0)}};
  SimClass c{"c", units::per_second(0.0),
             {Visit{0, Distribution::deterministic(work)}}};
  c.arrival_times.assign(static_cast<std::size_t>(jobs), 0.0);
  cfg.classes = {c};
  cfg.end_time = 10.0;
  cfg.record_completions = true;
  cfg.audit = true;
  return cfg;
}

TEST(Simulator, ProcessorSharingFinishesOnTheWorkIntegral) {
  // Four equal jobs on one server each progress at 1/4 and finish
  // together at exactly 4.
  const auto one = simulate(ps_burst(1, 4));
  ASSERT_EQ(one.completions.size(), 4U);
  for (const auto& c : one.completions) EXPECT_EQ(c.e2e_delay.value(), 4.0);
  // Three on two servers each progress at 2/3 and take exactly 1.5.
  const auto two = simulate(ps_burst(2, 3));
  ASSERT_EQ(two.completions.size(), 3U);
  for (const auto& c : two.completions) EXPECT_EQ(c.e2e_delay.value(), 1.5);
  // Seven jobs of work 0.7 on one server: at rate 1/7 the clock lands an
  // ulp past their common tag at t = 4.9, and all seven finish then.
  const auto seven = simulate(ps_burst(1, 7, 0.7));
  ASSERT_EQ(seven.completions.size(), 7U);
  for (const auto& c : seven.completions) EXPECT_EQ(c.e2e_delay.value(), 4.9);
  // A lone job does 0.5 of its work by t = 0.5 at speed 1 and the other
  // 0.5 at speed 2, which the management hook sets then: 0.75.
  SimConfig retuned = ps_burst(1, 1);
  retuned.control_period = 0.5;
  retuned.manage = [](const ControlSnapshot&) {
    return ManagementDecision{{TierSetting{2.0, units::watts(0.0)}}, {}};
  };
  const auto fast = simulate(retuned);
  ASSERT_EQ(fast.completions.size(), 1U);
  EXPECT_EQ(fast.completions[0].e2e_delay.value(), 0.75);
}

TEST(Simulator, ProcessorSharingResizeKeepsTheWorkDone) {
  // Two jobs on one server each do 0.5 by t = 1, when a second server
  // comes up, and the other 0.5 at rate 1: 1.5. Advancing the work clock
  // at the new server count instead finished both at t = 1.
  SimConfig grown = ps_burst(1, 2);
  grown.faults = {FaultEvent{1.0, 0, FaultKind::kSetServers, 2}};
  const auto wider = simulate(grown);
  ASSERT_EQ(wider.completions.size(), 2U);
  for (const auto& c : wider.completions) EXPECT_EQ(c.e2e_delay.value(), 1.5);
}

TEST(Simulator, ProcessorSharingFinishesAtALargeClock) {
  // Two PS servers fed at rate 1.2 with exp(1) work. Near t = 16,386 a
  // job's remaining work, once tracked per job against an absolute
  // tolerance, took less than half an ulp of the clock at rate 1: its
  // completion was rescheduled at the same time, forever. Each completion
  // event now finishes the job with the earliest finish tag.
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 2, Discipline::kProcessorSharing,
                             units::watts(0.0), units::watts(0.0)}};
  cfg.classes = {SimClass{"c", units::per_second(1.2),
                          {Visit{0, Distribution::exponential(1.0)}}}};
  cfg.end_time = 20000.0;
  cfg.seed = 3;
  cfg.audit = true;
  const auto r = simulate(cfg);
  EXPECT_EQ(r.events_fired, 64981U);
  EXPECT_EQ(r.classes[0].completed, 23664U);
  EXPECT_EQ(r.classes[0].arrived,
            r.classes[0].completed + r.classes[0].in_system_at_end);
}

TEST(Simulator, MultiServerPriorityMatchesExactFormula) {
  // Equal exponential services: the Bondi-Buzen scaling is exact for
  // M/M/c priority, so simulation must match it.
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 3, Discipline::kNonPreemptivePriority, units::watts(0.0), units::watts(0.0)}};
  cfg.classes = {
      SimClass{"hi", units::per_second(1.2), {Visit{0, Distribution::exponential(0.5)}}},
      SimClass{"lo", units::per_second(1.8), {Visit{0, Distribution::exponential(0.5)}}}};
  cfg.warmup_time = 300.0;
  cfg.end_time = 6300.0;
  cfg.seed = 37;
  const auto r = simulate(cfg);
  const auto m = queueing::analyze_station(
      3, Discipline::kNonPreemptivePriority,
      {queueing::ClassFlow{units::per_second(1.2), Distribution::exponential(0.5)},
       queueing::ClassFlow{units::per_second(1.8), Distribution::exponential(0.5)}});
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), m.mean_sojourn[0],
              0.08 * m.mean_sojourn[0]);
  EXPECT_NEAR(r.classes[1].mean_e2e_delay.value(), m.mean_sojourn[1],
              0.10 * m.mean_sojourn[1]);
}

TEST(Simulator, MultiServerPreemptiveApproximationWithinEnvelope) {
  // Unequal services + preemption at c = 2: Bondi-Buzen is approximate;
  // require agreement within the documented ~15% envelope.
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 2, Discipline::kPreemptiveResume, units::watts(0.0), units::watts(0.0)}};
  cfg.classes = {
      SimClass{"hi", units::per_second(0.8), {Visit{0, Distribution::exponential(0.6)}}},
      SimClass{"lo", units::per_second(1.0), {Visit{0, Distribution::exponential(0.9)}}}};
  cfg.warmup_time = 300.0;
  cfg.end_time = 8300.0;
  cfg.seed = 41;
  const auto r = simulate(cfg);
  const auto m = queueing::analyze_station(
      2, Discipline::kPreemptiveResume,
      {queueing::ClassFlow{units::per_second(0.8), Distribution::exponential(0.6)},
       queueing::ClassFlow{units::per_second(1.0), Distribution::exponential(0.9)}});
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), m.mean_sojourn[0],
              0.15 * m.mean_sojourn[0]);
  EXPECT_NEAR(r.classes[1].mean_e2e_delay.value(), m.mean_sojourn[1],
              0.20 * m.mean_sojourn[1]);
}

TEST(Simulator, TandemRouteSumsDelays) {
  SimConfig cfg;
  cfg.stations = {SimStation{"a", 1, Discipline::kFcfs, units::watts(0.0), units::watts(0.0)},
                  SimStation{"b", 1, Discipline::kFcfs, units::watts(0.0), units::watts(0.0)}};
  cfg.classes = {SimClass{"c",
                          units::per_second(0.4),
                          {Visit{0, Distribution::exponential(1.0)},
                           Visit{1, Distribution::exponential(0.5)}}}};
  cfg.warmup_time = 200.0;
  cfg.end_time = 5200.0;
  cfg.seed = 23;
  const auto r = simulate(cfg);
  const double theory = queueing::mm1(0.4, 1.0).mean_sojourn +
                        queueing::mm1(0.4, 2.0).mean_sojourn;
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), theory, 0.10 * theory);
  // Per-station waits split correctly.
  EXPECT_NEAR(r.stations[0].mean_wait[0], queueing::mm1(0.4, 1.0).mean_wait,
              0.12 * queueing::mm1(0.4, 1.0).mean_sojourn);
}

TEST(Simulator, EnergyAccountingMatchesUtilization) {
  const auto r = simulate(mm1_config(0.5, 1.0));
  // Station power = idle + dynamic * busy_fraction = 100 + 50 * util.
  EXPECT_NEAR(r.stations[0].avg_power.value(), 100.0 + 50.0 * r.stations[0].utilization,
              1e-9);
  EXPECT_NEAR(r.cluster_avg_power.value(), r.stations[0].avg_power.value(), 1e-12);
  // Per-request dynamic energy = dynamic watts x mean service time.
  EXPECT_NEAR(r.classes[0].mean_e2e_energy.value(), 50.0 * 1.0, 0.05 * 50.0);
}

TEST(Simulator, WarmupExcludesTransient) {
  // With a warmup, jobs arriving before it are not counted.
  SimConfig cfg = mm1_config(0.5, 1.0);
  cfg.warmup_time = 100.0;
  cfg.end_time = 200.0;
  const auto r = simulate(cfg);
  // ~0.5 arrivals per unit time over 100 units of measured window.
  EXPECT_LT(r.classes[0].completed, 90u);
  EXPECT_GT(r.classes[0].completed, 20u);
}

TEST(Simulator, ValidationCatchesBadConfigs) {
  SimConfig cfg;  // empty
  EXPECT_THROW(simulate(cfg), Error);

  cfg = mm1_config(0.5, 1.0);
  cfg.end_time = cfg.warmup_time;
  EXPECT_THROW(simulate(cfg), Error);

  cfg = mm1_config(0.5, 1.0);
  cfg.classes[0].route[0].station = 9;
  EXPECT_THROW(simulate(cfg), Error);

  cfg = mm1_config(0.5, 1.0);
  cfg.stations[0].servers = 0;
  EXPECT_THROW(simulate(cfg), Error);

  cfg = mm1_config(0.5, 1.0);
  cfg.classes[0].rate = units::per_second(-1.0);
  EXPECT_THROW(simulate(cfg), Error);
}

TEST(Simulator, ZeroRateClassProducesNothing) {
  SimConfig cfg = mm1_config(0.5, 1.0);
  cfg.classes.push_back(
      SimClass{"ghost", units::per_second(0.0), {Visit{0, Distribution::exponential(1.0)}}});
  const auto r = simulate(cfg);
  EXPECT_EQ(r.classes[1].completed, 0u);
  EXPECT_DOUBLE_EQ(r.classes[1].mean_e2e_delay.value(), 0.0);
}

TEST(Simulator, RevisitRouteWorks) {
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 1, Discipline::kFcfs, units::watts(0.0), units::watts(0.0)}};
  cfg.classes = {SimClass{"c",
                          units::per_second(0.3),
                          {Visit{0, Distribution::exponential(1.0)},
                           Visit{0, Distribution::exponential(1.0)}}}};
  cfg.warmup_time = 200.0;
  cfg.end_time = 5200.0;
  cfg.seed = 29;
  const auto r = simulate(cfg);
  // Total load 0.6; station behaves like M/M/1(0.6), two passes.
  const double theory = 2.0 * queueing::mm1(0.6, 1.0).mean_sojourn;
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), theory, 0.12 * theory);
  EXPECT_NEAR(r.stations[0].utilization, 0.6, 0.04);
}

TEST(Simulator, HeavyTailServiceStillStable) {
  SimConfig cfg = mm1_config(0.5, 1.0);
  cfg.classes[0].route[0].service = Distribution::pareto(2.5, 1.0);
  cfg.end_time = 8200.0;
  const auto r = simulate(cfg);
  const auto theory = queueing::mg1(0.5, Distribution::pareto(2.5, 1.0));
  // Heavy tails converge slowly; just require the right ballpark.
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), theory.mean_sojourn,
              0.30 * theory.mean_sojourn);
}

}  // namespace
}  // namespace cpm::sim
