// replicate() edge cases: seed-substream independence, minimum viable
// replication counts, and thread counts exceeding the replication count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "cpm/core/cpm.hpp"

namespace cpm {
namespace {

sim::SimConfig small_config(std::uint64_t seed) {
  const auto model = core::make_enterprise_model(0.6);
  return model.to_sim_config(model.max_frequencies(), 10.0, 110.0, seed);
}

TEST(ReplicationSeeds, DistinctAndDeterministic) {
  const auto seeds = sim::replication_seeds(20110516, 10000);
  ASSERT_EQ(seeds.size(), 10000u);
  std::unordered_set<std::uint64_t> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), seeds.size());  // no collisions ever reach runs
  EXPECT_EQ(sim::replication_seeds(20110516, 10000), seeds);

  // Prefix property: asking for fewer seeds yields a prefix, so growing
  // the replication count only ADDS runs (common-random-number friendly).
  const auto few = sim::replication_seeds(20110516, 10);
  for (std::size_t i = 0; i < few.size(); ++i) EXPECT_EQ(few[i], seeds[i]);

  EXPECT_THROW(sim::replication_seeds(1, 0), Error);
}

TEST(ReplicationSeeds, DifferFromBaseSeedAndEachOther) {
  // The base seed itself seeds the stream, not a run: reusing it for a
  // replication would correlate with any caller who ran simulate(base).
  for (std::uint64_t base : {0ull, 1ull, 20110516ull}) {
    const auto seeds = sim::replication_seeds(base, 100);
    std::unordered_set<std::uint64_t> unique(seeds.begin(), seeds.end());
    EXPECT_EQ(unique.size(), 100u) << "base " << base;
  }
}

TEST(Replicate, TwoReplicationsIsTheMinimumAndWorks) {
  sim::ReplicationOptions opt;
  opt.replications = 2;
  const auto r = sim::replicate(small_config(3), opt);
  EXPECT_EQ(r.replications, 2);
  for (const auto& c : r.classes) EXPECT_GT(c.total_completed, 0u);
  // With n = 2 the t-quantile is large but finite; the CI must be usable.
  EXPECT_TRUE(std::isfinite(r.mean_e2e_delay.half_width));
  EXPECT_GT(r.mean_e2e_delay.half_width, 0.0);

  opt.replications = 1;
  EXPECT_THROW(sim::replicate(small_config(3), opt), Error);
}

TEST(Replicate, MoreThreadsThanReplicationsIsHarmless) {
  sim::ReplicationOptions wide;
  wide.replications = 3;
  wide.threads = 64;  // must clamp, not spawn 61 idle workers or crash
  sim::ReplicationOptions serial;
  serial.replications = 3;
  serial.threads = 1;
  const auto a = sim::replicate(small_config(9), wide);
  const auto b = sim::replicate(small_config(9), serial);
  // Identical work partitioning regardless of thread count.
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_DOUBLE_EQ(a.mean_e2e_delay.mean, b.mean_e2e_delay.mean);
  EXPECT_DOUBLE_EQ(a.cluster_avg_power.mean, b.cluster_avg_power.mean);
}

TEST(Replicate, TenThousandReplicationsNeverExceedHardwareConcurrency) {
  // Regression: one thread per replication would try to spawn 10k OS
  // threads and die with resource_unavailable. The pool must clamp at
  // hardware_concurrency and still run every replication exactly once.
  sim::SimConfig tiny;
  tiny.stations.push_back(
      sim::SimStation{"s", 1, queueing::Discipline::kFcfs, units::watts(1.0), units::watts(2.0), 1.0, -1});
  sim::SimClass c;
  c.name.push_back('c');  // not `= "c"`: GCC 12's -Wrestrict misreads it
  c.rate = units::per_second(2.0);
  c.route = {queueing::Visit{0, Distribution::exponential(0.2)}};
  tiny.classes.push_back(c);
  tiny.warmup_time = 0.0;
  tiny.end_time = 2.0;
  tiny.seed = 7;

  sim::ReplicationOptions opt;
  opt.replications = 10000;
  opt.threads = 0;  // "use all hardware" — the dangerous default
  const auto r = sim::replicate(tiny, opt);
  EXPECT_EQ(r.replications, 10000);
  EXPECT_GE(r.threads_used, 1u);
  EXPECT_LE(r.threads_used, std::max(1u, std::thread::hardware_concurrency()));
  // Every replication ran: ~4 arrivals each makes zero total impossible.
  EXPECT_GT(r.total_events, 10000u);
  EXPECT_TRUE(std::isfinite(r.mean_e2e_delay.mean));
}

}  // namespace
}  // namespace cpm
