// Golden-value pin for the simulator hot path, companion to
// test_golden_determinism.cpp. That file covers the plain FCFS/priority
// enterprise model; this one locks the REST of the event paths — blocking
// admission control, preemptive-resume victim selection, processor
// sharing, closed interactive classes and mid-service DVFS retuning — so
// a hot-path optimisation (event representation, heap arity, allocation
// strategy) provably changes no simulation result bit-for-bit. The
// literals were produced by the pre-overhaul closure-based simulator and
// reproduced exactly by the typed-event/arena implementation; x86-64 GCC
// Release is the reference environment (no -ffast-math anywhere).
//
// Sixteen doubles were re-recorded when processor-sharing stations moved
// to a virtual clock: a PS job now finishes when the station's work clock
// reaches its finish tag, which rounds the "app" tier's completion times
// differently in their last bits, and the departures carry that into the
// delays, percentiles and the "db" tier downstream. Each moved by at most
// 6.3e-14 relative; every integer literal (events, completed, blocked,
// arrived, in system) held, as did the "edge" tier's figures.
#include <gtest/gtest.h>

#include "cpm/common/distribution.hpp"
#include "cpm/sim/replication.hpp"
#include "cpm/sim/simulator.hpp"

namespace cpm {
namespace {

sim::SimConfig mixed_config() {
  sim::SimConfig cfg;
  cfg.stations.push_back(sim::SimStation{
      "edge", 2, queueing::Discipline::kPreemptiveResume, units::watts(50.0),
      units::watts(100.0), 1.0, 5});
  cfg.stations.push_back(sim::SimStation{
      "app", 3, queueing::Discipline::kProcessorSharing, units::watts(60.0),
      units::watts(120.0), 1.0, -1});
  cfg.stations.push_back(sim::SimStation{
      "db", 2, queueing::Discipline::kNonPreemptivePriority, units::watts(70.0),
      units::watts(140.0), 1.0, -1});

  sim::SimClass gold;
  gold.name = "gold";
  gold.rate = units::per_second(2.0);
  gold.route = {queueing::Visit{0, Distribution::hyper_exp2(0.15, 4.0)},
                queueing::Visit{1, Distribution::erlang(2, 0.2)},
                queueing::Visit{2, Distribution::exponential(0.1)}};
  cfg.classes.push_back(gold);

  sim::SimClass silver;
  silver.name = "silver";
  silver.rate = units::per_second(3.0);
  silver.route = {queueing::Visit{0, Distribution::exponential(0.12)},
                  queueing::Visit{1, Distribution::deterministic(0.18)}};
  cfg.classes.push_back(silver);

  sim::SimClass batch;  // closed interactive class
  batch.name = "batch";
  batch.population = 5;
  batch.think_time = Distribution::exponential(2.0);
  batch.route = {queueing::Visit{1, Distribution::exponential(0.3)},
                 queueing::Visit{2, Distribution::erlang(3, 0.25)}};
  cfg.classes.push_back(batch);

  cfg.warmup_time = 50.0;
  cfg.end_time = 450.0;
  cfg.seed = 424242;
  cfg.audit = true;

  // DVFS through the management hook: alternate the edge/db operating
  // points every period so the mid-service rescale + energy segmentation
  // paths run.
  cfg.control_period = 25.0;
  cfg.manage = [](const sim::ControlSnapshot& snap) {
    std::vector<sim::TierSetting> out(3);
    const bool high = (static_cast<int>(snap.time / 25.0) % 2) == 1;
    out[0] = sim::TierSetting{high ? 1.25 : 0.9, units::watts(high ? 130.0 : 90.0)};
    out[1] = sim::TierSetting{high ? 1.1 : 1.0, units::watts(120.0)};
    out[2] = sim::TierSetting{1.0, units::watts(high ? 150.0 : 140.0)};
    return sim::ManagementDecision{out, {}};
  };
  return cfg;
}

TEST(GoldenHotPath, MixedDisciplineSimulationIsBitForBitStable) {
  const auto r = sim::simulate(mixed_config());

  EXPECT_EQ(r.events_fired, 12585u);
  ASSERT_EQ(r.classes.size(), 3u);

  EXPECT_EQ(r.classes[0].completed, 794u);
  EXPECT_EQ(r.classes[0].blocked, 10u);
  EXPECT_EQ(r.classes[0].arrived, 806u);
  EXPECT_EQ(r.classes[0].in_system_at_end, 2u);
  EXPECT_EQ(r.classes[1].completed, 1146u);
  EXPECT_EQ(r.classes[1].blocked, 11u);
  EXPECT_EQ(r.classes[1].arrived, 1158u);
  EXPECT_EQ(r.classes[1].in_system_at_end, 1u);
  EXPECT_EQ(r.classes[2].completed, 782u);
  EXPECT_EQ(r.classes[2].blocked, 0u);
  EXPECT_EQ(r.classes[2].arrived, 783u);
  EXPECT_EQ(r.classes[2].in_system_at_end, 1u);

  EXPECT_EQ(r.classes[0].mean_e2e_delay.value(), 0.48179082680434548);
  EXPECT_EQ(r.classes[0].p95_e2e_delay.value(), 1.0684034690299478);
  EXPECT_EQ(r.classes[0].mean_e2e_energy.value(), 53.786146506672836);
  EXPECT_EQ(r.classes[1].mean_e2e_delay.value(), 0.33177744591399594);
  EXPECT_EQ(r.classes[1].p95_e2e_delay.value(), 0.68387382374614569);
  EXPECT_EQ(r.classes[1].mean_e2e_energy.value(), 32.461560642482993);
  EXPECT_EQ(r.classes[2].mean_e2e_delay.value(), 0.57238508368685226);
  EXPECT_EQ(r.classes[2].p95_e2e_delay.value(), 1.2472367262555304);
  EXPECT_EQ(r.classes[2].mean_e2e_energy.value(), 70.497961004900077);

  EXPECT_EQ(r.mean_e2e_delay.value(), 0.442548789354202);
  EXPECT_EQ(r.cluster_avg_power.value(), 758.22434806939987);

  ASSERT_EQ(r.stations.size(), 3u);
  EXPECT_EQ(r.stations[0].utilization, 0.30595130487755251);
  EXPECT_EQ(r.stations[0].mean_queue_len, 0.088168114910950945);
  EXPECT_EQ(r.stations[0].avg_power.value(), 165.51901254264305);
  EXPECT_EQ(r.stations[1].utilization, 0.47881625476664907);
  EXPECT_EQ(r.stations[1].mean_queue_len, 0.0);
  EXPECT_EQ(r.stations[1].avg_power.value(), 352.3738517159934);
  EXPECT_EQ(r.stations[2].utilization, 0.34553106738524397);
  EXPECT_EQ(r.stations[2].mean_queue_len, 0.04591133597698191);
  EXPECT_EQ(r.stations[2].avg_power.value(), 240.33148381076342);
}

TEST(GoldenHotPath, ReplicatedAggregateIsThreadCountInvariant) {
  // Results land in slots addressed by replication index, so the pool's
  // nondeterministic schedule must not change any aggregate.
  auto base = mixed_config();
  base.audit = false;
  sim::ReplicationOptions opt;
  opt.replications = 4;
  opt.threads = 2;
  const auto two = sim::replicate(base, opt);
  EXPECT_EQ(two.mean_e2e_delay.mean, 0.44177662426316089);
  EXPECT_EQ(two.mean_e2e_delay.half_width, 0.014415335907776407);
  EXPECT_EQ(two.cluster_avg_power.mean, 755.51247725358883);
  EXPECT_EQ(two.total_events, 50614u);
  EXPECT_EQ(two.threads_used, 2u);

  opt.threads = 1;
  const auto one = sim::replicate(base, opt);
  EXPECT_EQ(one.mean_e2e_delay.mean, two.mean_e2e_delay.mean);
  EXPECT_EQ(one.mean_e2e_delay.half_width, two.mean_e2e_delay.half_width);
  EXPECT_EQ(one.cluster_avg_power.mean, two.cluster_avg_power.mean);
  EXPECT_EQ(one.threads_used, 1u);
}

}  // namespace
}  // namespace cpm
