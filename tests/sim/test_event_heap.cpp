#include "cpm/sim/event_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cpm/common/rng.hpp"

namespace cpm::sim {
namespace {

TEST(FourAryHeap, PopsInTimeOrder) {
  FourAryHeap<int> h;
  std::uint64_t seq = 0;
  for (double t : {5.0, 1.0, 4.0, 2.0, 3.0}) h.push(t, seq++, 0);
  std::vector<double> popped;
  while (!h.empty()) popped.push_back(h.pop().time);
  EXPECT_EQ(popped, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
}

TEST(FourAryHeap, EqualTimesPopInSequenceOrder) {
  FourAryHeap<int> h;
  // Insert equal-time entries with shuffled payloads; seq decides.
  h.push(1.0, 2, 20);
  h.push(1.0, 0, 0);
  h.push(1.0, 3, 30);
  h.push(1.0, 1, 10);
  std::vector<int> order;
  while (!h.empty()) order.push_back(h.pop().payload);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 30}));
}

TEST(FourAryHeap, RandomStressMatchesSortedReference) {
  FourAryHeap<std::size_t> h;
  Rng rng(11);
  std::vector<std::pair<double, std::uint64_t>> ref;
  for (std::size_t i = 0; i < 5000; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    h.push(t, i, i);
    ref.emplace_back(t, i);
  }
  std::sort(ref.begin(), ref.end());
  for (const auto& [t, seq] : ref) {
    const auto e = h.pop();
    EXPECT_EQ(e.time, t);
    EXPECT_EQ(e.seq, seq);
  }
  EXPECT_TRUE(h.empty());
}

TEST(FourAryHeap, InterleavedPushPopKeepsOrder) {
  FourAryHeap<int> h;
  Rng rng(7);
  std::uint64_t seq = 0;
  double last = 0.0;
  // Mimic a simulator: pop the min, push a few events later than it.
  h.push(0.0, seq++, 0);
  for (int step = 0; step < 2000; ++step) {
    const auto e = h.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
    const int fanout = static_cast<int>(rng.below(3));
    for (int i = 0; i < fanout && h.size() < 64; ++i)
      h.push(last + rng.uniform(0.0, 10.0), seq++, 0);
    if (h.empty()) break;
  }
}

}  // namespace
}  // namespace cpm::sim
