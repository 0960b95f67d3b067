// Tests of the simulator's online-management features: nonstationary
// arrival schedules, the periodic management hook (its window counters and
// admission map) and runtime DVFS retuning.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "cpm/core/cpm.hpp"
#include "cpm/workload/rate_schedule.hpp"

namespace cpm::sim {
namespace {

using queueing::Discipline;
using queueing::Visit;

SimConfig single_queue(double rate, double end_time = 2000.0) {
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 1, Discipline::kFcfs, units::watts(100.0), units::watts(50.0), 1.0}};
  cfg.classes = {SimClass{"c", units::per_second(rate), {Visit{0, Distribution::exponential(1.0)}}}};
  cfg.warmup_time = 100.0;
  cfg.end_time = end_time;
  cfg.seed = 21;
  return cfg;
}

/// The enterprise cluster at load 0.8 and f_max with no warm-up, at most 4
/// requests per tier (so capacity blocking is frequent) and a 1,000 s
/// horizon: any period dividing 1,000 puts the last tick on the horizon,
/// so every completion and block falls in exactly one window.
SimConfig blocking_enterprise(double control_period) {
  const auto model = core::make_enterprise_model(0.8);
  SimConfig cfg = model.to_sim_config(model.max_frequencies(), 0.0, 1000.0, 57);
  for (auto& st : cfg.stations) st.capacity = 4;
  cfg.control_period = control_period;
  return cfg;
}

/// A hook that records every snapshot and changes nothing.
ManagementHook recorder(std::vector<ControlSnapshot>& snaps) {
  return [&snaps](const ControlSnapshot& snap) {
    snaps.push_back(snap);
    return ManagementDecision{};
  };
}

TEST(ScheduledArrivals, ConstantScheduleMatchesStationary) {
  // A constant RateSchedule must reproduce stationary M/M/1 statistics.
  SimConfig cfg = single_queue(0.5);
  cfg.classes[0].schedule = workload::RateSchedule::constant(units::per_second(0.5));
  cfg.classes[0].rate = units::per_second(0.0);  // schedule takes precedence
  const auto r = simulate(cfg);
  const double theory = 1.0 / (1.0 - 0.5) * 1.0;  // M/M/1 sojourn = 2
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.value(), theory, 0.15 * theory);
  EXPECT_NEAR(r.stations[0].utilization, 0.5, 0.05);
}

TEST(ScheduledArrivals, TimeVaryingLoadShowsInUtilization) {
  // Rate 0.2 for the first half, 0.8 for the second: overall utilisation
  // lands near the mean 0.5, far from either extreme alone.
  SimConfig cfg = single_queue(0.0, 4000.0);
  cfg.warmup_time = 0.0;
  cfg.classes[0].schedule = workload::RateSchedule({0.2, 0.8}, 4000.0);
  const auto r = simulate(cfg);
  EXPECT_NEAR(r.stations[0].utilization, 0.5, 0.06);
  EXPECT_GT(r.classes[0].completed, 1500u);
}

TEST(ManagementHook, FiresEveryPeriodWithMeasurements) {
  SimConfig cfg = single_queue(0.5, 1000.0);
  cfg.warmup_time = 0.0;
  cfg.control_period = 100.0;
  int ticks = 0;
  double last_time = 0.0;
  cfg.manage = [&](const ControlSnapshot& snap) {
    ++ticks;
    EXPECT_GT(snap.time, last_time);
    last_time = snap.time;
    EXPECT_EQ(snap.arrival_rate.size(), 1u);
    EXPECT_NEAR(snap.arrival_rate[0], 0.5, 0.35);  // ~50 arrivals / 100 s
    EXPECT_EQ(snap.servers, std::vector<int>{1});
    return ManagementDecision{};  // no change
  };
  simulate(cfg);
  EXPECT_EQ(ticks, 10);
}

TEST(ManagementHook, SpeedChangeAffectsServiceTimes) {
  // Halving the station speed doubles mean service time; delays blow up
  // unless the load is light. Run light load and check the sojourn shift.
  SimConfig slow = single_queue(0.2, 3000.0);
  slow.control_period = 1.0;  // retune immediately and keep it
  slow.manage = [](const ControlSnapshot&) {
    return ManagementDecision{{TierSetting{0.5, units::watts(20.0)}}, {}};
  };
  const auto r_slow = simulate(slow);
  const auto r_fast = simulate(single_queue(0.2, 3000.0));
  // M/M/1: sojourn 1/(mu - lambda); mu 1 vs 0.5 -> 1.25 vs 3.33.
  EXPECT_NEAR(r_fast.classes[0].mean_e2e_delay.value(), 1.25, 0.2);
  EXPECT_NEAR(r_slow.classes[0].mean_e2e_delay.value(), 1.0 / (0.5 - 0.2), 0.6);
}

TEST(ManagementHook, PowerAccountingTracksWattsChanges) {
  // Dynamic watts switch from 50 to 10 at t=500 (half the horizon, no
  // warmup): average dynamic power should land mid-way, weighted by
  // utilisation.
  SimConfig cfg = single_queue(0.5, 1000.0);
  cfg.warmup_time = 0.0;
  cfg.control_period = 500.0;
  cfg.manage = [](const ControlSnapshot& snap) {
    if (snap.time < 600.0)
      return ManagementDecision{{TierSetting{1.0, units::watts(10.0)}}, {}};
    return ManagementDecision{};
  };
  const auto r = simulate(cfg);
  const double dyn = r.stations[0].avg_power.value() - 100.0;  // subtract idle
  // First half: 50 W x util, second half: 10 W x util, util ~ 0.5.
  EXPECT_NEAR(dyn, 0.5 * (50.0 + 10.0) * 0.5, 4.0);
}

TEST(ManagementHook, InvalidSettingsRejected) {
  SimConfig cfg = single_queue(0.5, 300.0);
  cfg.control_period = 100.0;
  cfg.manage = [](const ControlSnapshot&) {
    return ManagementDecision{{TierSetting{-1.0, units::watts(10.0)}}, {}};
  };
  EXPECT_THROW(simulate(cfg), Error);

  cfg.manage = [](const ControlSnapshot&) {
    return ManagementDecision{
        {TierSetting{1.0, units::watts(1.0)}, TierSetting{1.0, units::watts(1.0)}},
        {}};
  };
  EXPECT_THROW(simulate(cfg), Error);  // wrong station count

  cfg.manage = [](const ControlSnapshot&) {
    return ManagementDecision{{}, {1, 1}};
  };
  EXPECT_THROW(simulate(cfg), Error);  // wrong class count
}

TEST(ManagementHook, PreemptiveStationSurvivesRetuning) {
  // Speed changes while preemption is in play: invariants (no crash, all
  // jobs complete, delays positive and finite) must hold.
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 1, Discipline::kPreemptiveResume, units::watts(0.0), units::watts(30.0), 1.0}};
  cfg.classes = {
      SimClass{"hi", units::per_second(0.2), {Visit{0, Distribution::exponential(1.0)}}},
      SimClass{"lo", units::per_second(0.3), {Visit{0, Distribution::exponential(1.0)}}}};
  cfg.warmup_time = 50.0;
  cfg.end_time = 1550.0;
  cfg.seed = 31;
  cfg.control_period = 25.0;
  int flip = 0;
  cfg.manage = [&flip](const ControlSnapshot&) {
    ++flip;
    const double speed = (flip % 2 == 0) ? 1.0 : 1.4;
    return ManagementDecision{{TierSetting{speed, units::watts(30.0 * speed)}}, {}};
  };
  const auto r = simulate(cfg);
  EXPECT_GT(r.classes[0].completed, 100u);
  EXPECT_GT(r.classes[1].completed, 100u);
  EXPECT_TRUE(std::isfinite(r.classes[1].mean_e2e_delay.value()));
  EXPECT_GT(r.classes[0].mean_e2e_delay.value(), 0.0);
}

TEST(ManagementHook, WindowCountersSumToRunTotals) {
  for (const double period : {20.0, 25.0}) {
    SimConfig cfg = blocking_enterprise(period);
    std::vector<ControlSnapshot> snaps;
    cfg.manage = recorder(snaps);
    const auto r = simulate(cfg);
    ASSERT_EQ(snaps.size(), static_cast<std::size_t>(1000.0 / period));
    std::uint64_t all_blocked = 0;
    for (std::size_t k = 0; k < r.classes.size(); ++k) {
      std::uint64_t completed = 0;
      std::uint64_t blocked = 0;
      for (const auto& snap : snaps) {
        completed += snap.window_completed[k];
        blocked += snap.window_blocked[k];
      }
      EXPECT_EQ(completed, r.classes[k].completed) << "class " << k;
      EXPECT_EQ(blocked, r.classes[k].blocked) << "class " << k;
      all_blocked += blocked;
    }
    EXPECT_GT(all_blocked, 0u);  // the capacity actually bit

    double energy = 0.0;
    for (const auto& snap : snaps) energy += snap.window_energy_joules.value();
    const double expected = r.cluster_avg_power.value() * r.measured_time;
    EXPECT_NEAR(energy, expected, 1e-12 * expected) << "period " << period;
  }
}

TEST(ManagementHook, WithinSlaHonoursThresholds) {
  // Class 0 is judged against a threshold some of its completions miss,
  // class 1's threshold is disabled (0) and class 2 has one every
  // completion meets. The recorded completions give the expected counts.
  SimConfig cfg = blocking_enterprise(25.0);
  cfg.record_completions = true;
  cfg.sla_thresholds = {units::seconds(0.1), units::seconds(0.0),
                        units::seconds(1e6)};
  std::vector<ControlSnapshot> snaps;
  cfg.manage = recorder(snaps);
  const auto r = simulate(cfg);

  std::vector<std::uint64_t> expected(r.classes.size(), 0);
  for (const auto& c : r.completions) {
    const double thr = cfg.sla_thresholds[c.cls].value();
    if (thr <= 0.0 || c.e2e_delay.value() <= thr) ++expected[c.cls];
  }
  std::vector<std::uint64_t> within(r.classes.size(), 0);
  for (const auto& snap : snaps)
    for (std::size_t k = 0; k < within.size(); ++k)
      within[k] += snap.window_within_sla[k];
  EXPECT_EQ(within, expected);
  EXPECT_GT(within[0], 0u);
  EXPECT_LT(within[0], r.classes[0].completed);
  EXPECT_EQ(within[1], r.classes[1].completed);
  EXPECT_EQ(within[2], r.classes[2].completed);
}

TEST(ManagementHook, AdmitMapShedsAClassFromATickOn) {
  constexpr double kShedFrom = 500.0;
  constexpr double kPeriod = 25.0;
  const auto unshed = simulate(blocking_enterprise(kPeriod));

  SimConfig cfg = blocking_enterprise(kPeriod);
  std::vector<ControlSnapshot> snaps;
  cfg.manage = [&snaps](const ControlSnapshot& snap) {
    snaps.push_back(snap);
    ManagementDecision decision;
    if (snap.time >= kShedFrom) decision.admit = {1, 0, 1};
    return decision;
  };
  const auto r = simulate(cfg);

  // Every class-1 arrival after the shed decision is blocked on the spot.
  int shed_windows = 0;
  for (const auto& snap : snaps) {
    if (snap.time <= kShedFrom) continue;
    ++shed_windows;
    EXPECT_EQ(snap.admitted[1], 0);
    EXPECT_EQ(static_cast<long long>(snap.window_blocked[1]),
              std::llround(snap.arrival_rate[1] * kPeriod))
        << "t=" << snap.time;
  }
  EXPECT_EQ(shed_windows, 20);
  EXPECT_GT(r.classes[1].blocked, unshed.classes[1].blocked);
  for (const auto& c : r.classes)
    EXPECT_EQ(c.arrived, c.completed + c.blocked + c.in_system_at_end);
  EXPECT_EQ(r.classes[0].arrived, unshed.classes[0].arrived);
}

}  // namespace
}  // namespace cpm::sim
