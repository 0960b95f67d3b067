// SimConfig::audit — the simulator's in-run self-verification. An audited
// run of a healthy configuration must complete silently, produce exactly
// the same statistics as an unaudited run, and maintain flow-conservation
// counters that balance to the unit.
#include <gtest/gtest.h>

#include "cpm/core/cpm.hpp"

namespace cpm {
namespace {

sim::SimConfig enterprise_config(double load, std::uint64_t seed) {
  const auto model = core::make_enterprise_model(load);
  return model.to_sim_config(model.max_frequencies(), 20.0, 320.0, seed);
}

TEST(SimAudit, AuditedRunMatchesUnauditedRunExactly) {
  auto cfg = enterprise_config(0.8, 5);
  const auto plain = sim::simulate(cfg);
  cfg.audit = true;
  const auto audited = sim::simulate(cfg);
  EXPECT_EQ(plain.events_fired, audited.events_fired);
  EXPECT_EQ(plain.classes.size(), audited.classes.size());
  for (std::size_t k = 0; k < plain.classes.size(); ++k) {
    EXPECT_EQ(plain.classes[k].completed, audited.classes[k].completed);
    EXPECT_DOUBLE_EQ(plain.classes[k].mean_e2e_delay.value(),
                     audited.classes[k].mean_e2e_delay.value());
  }
  EXPECT_DOUBLE_EQ(plain.cluster_avg_power.value(), audited.cluster_avg_power.value());
}

TEST(SimAudit, FlowCountersBalancePerClass) {
  auto cfg = enterprise_config(0.9, 17);
  cfg.audit = true;
  const auto r = sim::simulate(cfg);
  for (const auto& c : r.classes) {
    EXPECT_GT(c.arrived, 0u);
    EXPECT_EQ(c.arrived, c.completed + c.blocked + c.in_system_at_end);
  }
}

TEST(SimAudit, SurvivesAdmissionControlAndBlocking) {
  auto cfg = enterprise_config(0.9, 23);
  cfg.audit = true;
  for (auto& s : cfg.stations) s.capacity = 3;  // force real blocking
  const auto r = sim::simulate(cfg);
  std::uint64_t blocked = 0;
  for (const auto& c : r.classes) {
    blocked += c.blocked;
    EXPECT_EQ(c.arrived, c.completed + c.blocked + c.in_system_at_end);
  }
  EXPECT_GT(blocked, 0u);  // the capacity actually bit
}

TEST(SimAudit, SurvivesDvfsRetuningMidRun) {
  auto cfg = enterprise_config(0.7, 31);
  cfg.audit = true;
  cfg.control_period = 25.0;
  // Alternate every station between full speed and 80% with matching
  // dynamic power: exercises the energy-attribution audit across segments.
  bool flip = false;
  cfg.manage = [&flip, n = cfg.stations.size()](const sim::ControlSnapshot&) {
    flip = !flip;
    std::vector<sim::TierSetting> out(n);
    for (auto& t : out) {
      t.speed = flip ? 0.8 : 1.0;
      t.dynamic_watts = units::watts(flip ? 120.0 : 160.0);
    }
    return sim::ManagementDecision{out, {}};
  };
  EXPECT_NO_THROW(sim::simulate(cfg));
}

TEST(SimAudit, SurvivesClosedClasses) {
  auto cfg = enterprise_config(0.6, 41);
  cfg.audit = true;
  cfg.classes[0].population = 20;
  cfg.classes[0].think_time = Distribution::exponential(2.0);
  const auto r = sim::simulate(cfg);
  for (const auto& c : r.classes)
    EXPECT_EQ(c.arrived, c.completed + c.blocked + c.in_system_at_end);
}

}  // namespace
}  // namespace cpm
