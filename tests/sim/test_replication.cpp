#include "cpm/sim/replication.hpp"

#include <gtest/gtest.h>

#include "cpm/common/error.hpp"
#include "cpm/queueing/basic.hpp"

namespace cpm::sim {
namespace {

using queueing::Discipline;
using queueing::Visit;

SimConfig base_config() {
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 1, Discipline::kFcfs, units::watts(10.0), units::watts(5.0)}};
  cfg.classes = {SimClass{"c", units::per_second(0.5), {Visit{0, Distribution::exponential(1.0)}}}};
  cfg.warmup_time = 100.0;
  cfg.end_time = 1100.0;
  cfg.seed = 42;
  return cfg;
}

TEST(Replicate, CiCoversTheory) {
  ReplicationOptions opts;
  opts.replications = 10;
  const auto r = replicate(base_config(), opts);
  const double theory = queueing::mm1(0.5, 1.0).mean_sojourn;
  EXPECT_EQ(r.replications, 10);
  // The CI should be near the true value and not absurdly wide.
  EXPECT_NEAR(r.classes[0].mean_e2e_delay.mean, theory, 0.15 * theory);
  EXPECT_LT(r.classes[0].mean_e2e_delay.relative(), 0.25);
  EXPECT_GT(r.classes[0].total_completed, 3000u);
}

TEST(Replicate, ResultIndependentOfThreadCount) {
  ReplicationOptions serial;
  serial.replications = 6;
  serial.threads = 1;
  ReplicationOptions parallel = serial;
  parallel.threads = 4;
  const auto a = replicate(base_config(), serial);
  const auto b = replicate(base_config(), parallel);
  EXPECT_DOUBLE_EQ(a.mean_e2e_delay.mean, b.mean_e2e_delay.mean);
  EXPECT_DOUBLE_EQ(a.cluster_avg_power.mean, b.cluster_avg_power.mean);
  EXPECT_EQ(a.total_events, b.total_events);
}

TEST(Replicate, ReplicationsAreStatisticallyDistinct) {
  // If all replications used the same seed the CI would collapse to zero.
  ReplicationOptions opts;
  opts.replications = 5;
  const auto r = replicate(base_config(), opts);
  EXPECT_GT(r.classes[0].mean_e2e_delay.half_width, 0.0);
}

TEST(Replicate, MoreReplicationsTightenCi) {
  ReplicationOptions few;
  few.replications = 4;
  ReplicationOptions many;
  many.replications = 16;
  const auto a = replicate(base_config(), few);
  const auto b = replicate(base_config(), many);
  EXPECT_LT(b.mean_e2e_delay.half_width, a.mean_e2e_delay.half_width);
}

TEST(Replicate, RequiresTwoReplications) {
  ReplicationOptions opts;
  opts.replications = 1;
  EXPECT_THROW(replicate(base_config(), opts), Error);
}

TEST(Replicate, StationUtilizationAggregated) {
  ReplicationOptions opts;
  opts.replications = 6;
  const auto r = replicate(base_config(), opts);
  ASSERT_EQ(r.station_utilization.size(), 1u);
  EXPECT_NEAR(r.station_utilization[0].mean, 0.5, 0.05);
}

}  // namespace
}  // namespace cpm::sim
