// Heap allocations of a processor-sharing run, counted by a replaced
// global operator new. Replacing it affects the whole program, so this
// test is an executable of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cpm/sim/simulator.hpp"

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

// Out of line, like the deletes below: GCC 12 flags a malloc() or free()
// it sees inlined against the other side of new and delete
// (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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
  const long before = g_allocations.load();
  const SimResult r = simulate(cfg);
  const long made = g_allocations.load() - before;
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
