// Heap allocations of model evaluation in steady state, counted by a
// replaced global operator new. Replacing it affects the whole program, so
// these tests are an executable of their own.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "../common/counting_new.hpp"
#include "cpm/core/model_io.hpp"
#include "cpm/core/optimizers.hpp"
#include "cpm/core/tier_table.hpp"

namespace cpm::core {
namespace {

using cpm::testing::allocations_of;

ClusterModel enterprise_load70() {
  std::ifstream in(CPM_MODELS_DIR "/enterprise_load70.json");
  std::ostringstream text;
  text << in.rdbuf();
  return model_from_json_text(text.str());
}

TEST(EvaluateAllocations, OneShotEvaluationAllocatesItsResult) {
  const ClusterModel model = enterprise_load70();
  Evaluation ev;
  const long made =
      allocations_of([&] { ev = model.evaluate(model.max_frequencies()); });
  EXPECT_GT(made, 0);
  // The uncached loop a one-point evaluation ran before it read a fresh
  // TierTable made 30 here, max_frequencies() included; a table with a
  // store per tier would make more.
  EXPECT_LE(made, 30);
  EXPECT_TRUE(ev.stable);
}

TEST(EvaluateAllocations, InPlaceEvaluationAllocatesNothingOnceWarm) {
  const ClusterModel model = enterprise_load70();
  TierTable table(model);
  const Evaluation& ev = table.evaluate(model.max_frequencies());
  ASSERT_TRUE(ev.stable);
  // A second point, with a unit beyond the first point's, makes the
  // table's room for a solve.
  ASSERT_TRUE(table.evaluate({0.9, 1.0, 1.0}).stable);

  // A point whose units the table computes allocates nothing, nor does
  // reading its power.
  const std::vector<double> f = {0.8, 0.9, 0.95};
  const std::vector<double> g = {0.85, 0.9, 0.95};
  EXPECT_EQ(allocations_of([&] { table.evaluate(f); }), 0);
  ASSERT_TRUE(ev.stable);
  EXPECT_EQ(allocations_of([&] { table.power(g); }), 0);
  // An unstable point and the return to a stable one allocate nothing too.
  const std::vector<double> slow = model.min_frequencies();
  EXPECT_EQ(allocations_of([&] { table.evaluate(slow); }), 0);
  ASSERT_FALSE(ev.stable);
  EXPECT_EQ(allocations_of([&] { table.evaluate(f); }), 0);
  ASSERT_TRUE(ev.stable);
}

TEST(EvaluateAllocations, PowerSolveReadsOneTable) {
  // P-E at rate scale 0.925 with the bound at 3x the f_max mean delay.
  // When every solver probe evaluated through fresh buffers the augmented
  // Lagrangian made 716,036 allocations here, and 607 with its buffers
  // allocated once per run. The dual solve, reading every point through
  // one TierTable, makes 120, all per solve or per multiplier step; the
  // budget is the one the augmented Lagrangian had.
  const ClusterModel model = enterprise_load70().with_rate_scale(0.925);
  const units::Seconds bound = model.mean_delay_at(model.max_frequencies()) * 3.0;
  FrequencyOptResult r;
  const long made =
      allocations_of([&] { r = minimize_power_with_delay_bound(model, bound); });
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(made, 700);
}

}  // namespace
}  // namespace cpm::core
