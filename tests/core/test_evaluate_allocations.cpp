// Heap allocations of model evaluation in steady state, counted by a
// replaced global operator new. Replacing it affects the whole program, so
// these tests are an executable of their own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <vector>

#include "cpm/core/model_io.hpp"
#include "cpm/core/optimizers.hpp"

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cpm::core {
namespace {

ClusterModel enterprise_load70() {
  std::ifstream in(CPM_MODELS_DIR "/enterprise_load70.json");
  std::ostringstream text;
  text << in.rdbuf();
  return model_from_json_text(text.str());
}

// Allocations made by `fn()`.
template <class Fn>
long allocations_of(const Fn& fn) {
  const long before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(EvaluateAllocations, OneShotEvaluationAllocatesItsResult) {
  const ClusterModel model = enterprise_load70();
  Evaluation ev;
  EXPECT_GT(allocations_of([&] { ev = model.evaluate(model.max_frequencies()); }), 0);
  EXPECT_TRUE(ev.stable);
}

TEST(EvaluateAllocations, InPlaceEvaluationAllocatesNothingOnceWarm) {
  const ClusterModel model = enterprise_load70();
  EvaluationWorkspace ws;
  Evaluation ev;
  model.evaluate(model.max_frequencies(), ev, ws);
  ASSERT_TRUE(ev.stable);

  const std::vector<double> f = {0.8, 0.9, 0.95};
  EXPECT_EQ(allocations_of([&] { model.evaluate(f, ev, ws); }), 0);
  ASSERT_TRUE(ev.stable);
  // An unstable point and the return to a stable one allocate nothing too.
  const std::vector<double> slow = model.min_frequencies();
  EXPECT_EQ(allocations_of([&] { model.evaluate(slow, ev, ws); }), 0);
  ASSERT_FALSE(ev.stable);
  EXPECT_EQ(allocations_of([&] { model.evaluate(f, ev, ws); }), 0);
  ASSERT_TRUE(ev.stable);
  // Evaluating another model of the same shape reuses the buffers too.
  const ClusterModel heavier = model.with_rate_scale(1.1);
  EXPECT_EQ(allocations_of([&] { heavier.evaluate(f, ev, ws); }), 0);
}

TEST(EvaluateAllocations, PowerSolveReusesOneWorkspace) {
  // P-E at rate scale 0.925 with the bound at 3x the f_max mean delay.
  // When every solver probe evaluated through fresh buffers the augmented
  // Lagrangian made 716,036 allocations here, and 607 with its buffers
  // allocated once per run. The dual solve makes 134, all per solve or per
  // multiplier step; the budget is the one the augmented Lagrangian had.
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
