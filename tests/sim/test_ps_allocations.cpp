// Heap allocations of a processor-sharing run, counted by a replaced
// global operator new. Replacing it affects the whole program, so this
// test is an executable of its own.
#include <gtest/gtest.h>

#include "../common/counting_new.hpp"
#include "cpm/sim/simulator.hpp"

namespace cpm::sim {
namespace {

using queueing::Discipline;
using queueing::Visit;

// Allocations made by one run of a station of two `discipline` servers
// fed at rate 1.2 with exp(1) work for 10,000 s, and the jobs it completed.
long allocations_of_run(Discipline discipline, std::uint64_t& completed) {
  SimConfig cfg;
  cfg.stations = {SimStation{"s", 2, discipline, units::watts(0.0),
                             units::watts(0.0)}};
  cfg.classes = {SimClass{"c", units::per_second(1.2),
                          {Visit{0, Distribution::exponential(1.0)}}}};
  cfg.end_time = 10000.0;
  cfg.seed = 3;
  cfg.audit = true;
  SimResult r;
  const long made = cpm::testing::allocations_of([&] { r = simulate(cfg); });
  completed = r.classes[0].completed;
  return made;
}

TEST(PsAllocations, CompletionsAllocateNoMoreThanFcfs) {
  // A fresh buffer of finished jobs per PS completion made 11,869
  // allocations here against 122 under FCFS, for 11,825 completions each.
  std::uint64_t ps_completed = 0;
  std::uint64_t fcfs_completed = 0;
  const long ps = allocations_of_run(Discipline::kProcessorSharing,
                                     ps_completed);
  const long fcfs = allocations_of_run(Discipline::kFcfs, fcfs_completed);
  ASSERT_GT(ps_completed, 10000U);
  ASSERT_GT(fcfs_completed, 10000U);
  EXPECT_LE(ps, fcfs);
}

}  // namespace
}  // namespace cpm::sim
