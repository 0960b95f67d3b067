// OnlineController decision logic, driven by synthetic snapshots so every
// branch is reached deterministically without a simulator in the loop:
// laziness at steady state, drift persistence, fault fast-path, slew
// limits, switching-cost accounting, shedding and last-known-good fallback.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "cpm/common/error.hpp"
#include "cpm/core/cpm.hpp"
#include "cpm/online/controller.hpp"

namespace cpm::online {
namespace {

using core::make_enterprise_model;

/// A snapshot consistent with "everything healthy at the nominal rates".
sim::ControlSnapshot healthy_snapshot(const core::ClusterModel& model,
                                      double time) {
  sim::ControlSnapshot snap;
  snap.time = time;
  const double window = 10.0;
  const std::size_t tiers = model.num_tiers();
  const std::size_t classes = model.num_classes();
  snap.servers.resize(tiers);
  for (std::size_t i = 0; i < tiers; ++i)
    snap.servers[i] = model.tiers()[i].servers;
  snap.arrival_rate.resize(classes);
  snap.window_completed.resize(classes);
  snap.window_blocked.assign(classes, 0);
  snap.window_within_sla.resize(classes);
  snap.window_mean_delay.assign(classes, 0.1);
  for (std::size_t k = 0; k < classes; ++k) {
    snap.arrival_rate[k] = model.classes()[k].rate.value();
    snap.window_completed[k] =
        static_cast<std::uint64_t>(model.classes()[k].rate.value() * window);
    snap.window_within_sla[k] = snap.window_completed[k];
  }
  snap.window_energy_joules = units::joules(100.0);
  snap.admitted.assign(classes, 1);
  return snap;
}

ControllerOptions fast_options() {
  ControllerOptions o;
  o.estimator_windows = 2;
  o.drift_windows = 2;
  o.cooldown_windows = 2;
  o.levels = 5;
  o.size_servers = false;
  return o;
}

TEST(Controller, RejectsBadOptions) {
  const auto model = make_enterprise_model(0.5);
  ControllerOptions o;
  o.hysteresis = 0.0;
  EXPECT_THROW(OnlineController(model, o), Error);
  o = ControllerOptions{};
  o.rate_headroom = 0.9;
  EXPECT_THROW(OnlineController(model, o), Error);
  o = ControllerOptions{};
  o.sla_trigger = 1.5;
  EXPECT_THROW(OnlineController(model, o), Error);
  o = ControllerOptions{};
  o.levels = 1;
  EXPECT_THROW(OnlineController(model, o), Error);
}

TEST(Controller, SteadyStateMakesNoDecisions) {
  const auto model = make_enterprise_model(0.6);
  OnlineController ctl(model, fast_options());
  auto hook = ctl.hook();
  for (int w = 0; w < 10; ++w) {
    const auto decision = hook(healthy_snapshot(model, 10.0 * (w + 1)));
    EXPECT_TRUE(decision.tiers.empty());
    EXPECT_TRUE(decision.admit.empty());
  }
  EXPECT_EQ(ctl.reoptimizations(), 0u);
  EXPECT_DOUBLE_EQ(ctl.total_switching_cost().value(), 0.0);
  ASSERT_EQ(ctl.history().size(), 10u);
  for (const auto& rec : ctl.history()) {
    EXPECT_FALSE(rec.reoptimized);
    EXPECT_EQ(rec.reason, "");
  }
}

TEST(Controller, DriftNeedsPersistenceBeforeReplanning) {
  const auto model = make_enterprise_model(0.6);
  OnlineController ctl(model, fast_options());
  auto hook = ctl.hook();
  // Two nominal windows warm the estimators up without drifting.
  hook(healthy_snapshot(model, 10.0));
  hook(healthy_snapshot(model, 20.0));
  // Rates double: first out-of-band window must NOT replan (streak 1 of 2),
  // the second consecutive one must (reason "drift").
  auto high = healthy_snapshot(model, 30.0);
  for (auto& r : high.arrival_rate) r *= 2.0;
  hook(high);
  EXPECT_EQ(ctl.reoptimizations(), 0u);
  EXPECT_FALSE(ctl.history().back().reoptimized);
  high.time = 40.0;
  hook(high);
  EXPECT_EQ(ctl.reoptimizations(), 1u);
  EXPECT_TRUE(ctl.history().back().reoptimized);
  EXPECT_EQ(ctl.history().back().reason, "drift");
  // The new plan was computed for the headroom-inflated measured rates.
  high.time = 50.0;
  hook(high);
  EXPECT_EQ(ctl.reoptimizations(), 1u) << "cooldown must suppress a replan";
}

TEST(Controller, SlaDistressTriggersReplan) {
  const auto model = make_enterprise_model(0.6);
  auto opts = fast_options();
  opts.drift_windows = 2;
  OnlineController ctl(model, opts);
  auto hook = ctl.hook();
  hook(healthy_snapshot(model, 10.0));
  hook(healthy_snapshot(model, 20.0));
  // Rates stay nominal (no drift) but gold attainment collapses.
  auto bad = healthy_snapshot(model, 30.0);
  bad.window_within_sla[0] = bad.window_completed[0] / 2;
  hook(bad);
  EXPECT_EQ(ctl.reoptimizations(), 0u);
  bad.time = 40.0;
  hook(bad);
  EXPECT_EQ(ctl.reoptimizations(), 1u);
  EXPECT_EQ(ctl.history().back().reason, "sla");
}

TEST(Controller, FaultBypassesPersistenceAndReplansImmediately) {
  const auto model = make_enterprise_model(0.6);
  OnlineController ctl(model, fast_options());
  auto hook = ctl.hook();
  hook(healthy_snapshot(model, 10.0));
  // One window later the web tier has lost a server (2 -> 1): the very
  // same window must carry a "fault" replan, no streak required.
  auto faulty = healthy_snapshot(model, 20.0);
  faulty.servers[0] = 1;
  hook(faulty);
  EXPECT_EQ(ctl.reoptimizations(), 1u);
  EXPECT_EQ(ctl.history().back().reason, "fault");
}

TEST(Controller, ActuationRespectsSlewLimitsAndChargesSwitching) {
  const auto model = make_enterprise_model(0.7);
  auto opts = fast_options();
  opts.drift_windows = 1;
  opts.cooldown_windows = 0;
  opts.hysteresis = 0.05;
  opts.max_freq_step = units::hertz(0.1);
  OnlineController ctl(model, opts);
  auto hook = ctl.hook();

  std::vector<double> prev_freq = ctl.initial_frequencies();
  std::vector<int> prev_servers(model.num_tiers());
  for (std::size_t i = 0; i < model.num_tiers(); ++i)
    prev_servers[i] = model.tiers()[i].servers;

  double cost_sum = 0.0;
  for (int w = 0; w < 12; ++w) {
    auto snap = healthy_snapshot(model, 10.0 * (w + 1));
    // Halve the traffic: the re-plan wants lower frequencies, which the
    // actuator may only approach 0.1 per window.
    for (auto& r : snap.arrival_rate) r *= 0.5;
    for (std::size_t i = 0; i < prev_servers.size(); ++i)
      snap.servers[i] = prev_servers[i];
    hook(snap);
    const auto& rec = ctl.history().back();
    for (std::size_t i = 0; i < model.num_tiers(); ++i) {
      EXPECT_LE(std::abs(rec.actuated_servers[i] - prev_servers[i]),
                opts.max_server_step);
      EXPECT_LE(std::abs(rec.actuated_freq[i] - prev_freq[i]),
                opts.max_freq_step.value() + 1e-12);
    }
    prev_servers = rec.actuated_servers;
    prev_freq = rec.actuated_freq;
    cost_sum += rec.switching_cost_j.value();
  }
  EXPECT_GT(ctl.reoptimizations(), 0u);
  // Frequencies actually moved off the initial plan, and every change was
  // charged: per-window costs add up to the reported total.
  EXPECT_GT(ctl.total_switching_cost().value(), 0.0);
  EXPECT_DOUBLE_EQ(ctl.total_switching_cost().value(), cost_sum);
}

TEST(Controller, OverloadShedsLowestPriorityFirstNeverGold) {
  const auto model = make_enterprise_model(0.7);
  auto opts = fast_options();
  opts.drift_windows = 1;
  opts.cooldown_windows = 0;
  OnlineController ctl(model, opts);
  auto hook = ctl.hook();
  hook(healthy_snapshot(model, 10.0));
  hook(healthy_snapshot(model, 20.0));
  // 3x the nominal load on the fixed fleet is infeasible for the full
  // class mix; the controller must shed from the bottom of the priority
  // order and keep gold admitted.
  auto heavy = healthy_snapshot(model, 30.0);
  for (auto& r : heavy.arrival_rate) r *= 3.0;
  const auto decision = hook(heavy);
  const auto& rec = ctl.history().back();
  ASSERT_TRUE(rec.reoptimized);
  ASSERT_TRUE(rec.feasible) << "shedding should have restored feasibility";
  EXPECT_EQ(rec.admitted[0], 1) << "gold is never shed";
  EXPECT_EQ(rec.admitted[2], 0) << "bronze goes first";
  ASSERT_FALSE(decision.admit.empty());
  EXPECT_EQ(decision.admit[2], 0);
}

TEST(Controller, HopelessLoadFallsBackToLastKnownGoodPlan) {
  const auto model = make_enterprise_model(0.7);
  auto opts = fast_options();
  opts.drift_windows = 1;
  opts.cooldown_windows = 0;
  OnlineController ctl(model, opts);
  auto hook = ctl.hook();
  hook(healthy_snapshot(model, 10.0));
  hook(healthy_snapshot(model, 20.0));
  // Rates far beyond any tier's capacity: even gold alone is infeasible,
  // so the controller degrades to the last known-good plan instead of
  // actuating garbage.
  auto hopeless = healthy_snapshot(model, 30.0);
  for (auto& r : hopeless.arrival_rate) r = 500.0;
  hook(hopeless);
  const auto& rec = ctl.history().back();
  ASSERT_TRUE(rec.reoptimized);
  EXPECT_FALSE(rec.feasible);
  EXPECT_TRUE(rec.degraded);
  // The fallback is the initial (feasible) plan: full admission, the
  // model's own fleet as the target.
  for (std::size_t k = 0; k < model.num_classes(); ++k)
    EXPECT_EQ(rec.admitted[k], 1);
  for (std::size_t i = 0; i < model.num_tiers(); ++i)
    EXPECT_EQ(rec.target_servers[i], model.tiers()[i].servers);
}

}  // namespace
}  // namespace cpm::online
