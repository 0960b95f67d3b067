#include "cpm/workload/rate_schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cpm/common/error.hpp"

namespace cpm::workload {
namespace {

TEST(RateSchedule, ConstantIsConstant) {
  const auto s = RateSchedule::constant(units::per_second(3.0));
  for (double t : {0.0, 0.5, 10.0, 123.4}) EXPECT_DOUBLE_EQ(s.rate_at(t).value(), 3.0);
  EXPECT_DOUBLE_EQ(s.max_rate().value(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean_rate().value(), 3.0);
}

TEST(RateSchedule, SlotLookup) {
  const RateSchedule s({1.0, 2.0, 4.0}, 3.0);
  EXPECT_DOUBLE_EQ(s.rate_at(0.5).value(), 1.0);
  EXPECT_DOUBLE_EQ(s.rate_at(1.5).value(), 2.0);
  EXPECT_DOUBLE_EQ(s.rate_at(2.5).value(), 4.0);
  // Periodic continuation beyond the horizon.
  EXPECT_DOUBLE_EQ(s.rate_at(3.5).value(), 1.0);
  EXPECT_DOUBLE_EQ(s.rate_at(7.5).value(), 2.0);
  EXPECT_DOUBLE_EQ(s.max_rate().value(), 4.0);
  EXPECT_NEAR(s.mean_rate().value(), 7.0 / 3.0, 1e-12);
}

TEST(RateSchedule, ExpectedArrivalsIntegratesSlots) {
  const RateSchedule s({1.0, 3.0}, 2.0);
  EXPECT_NEAR(s.expected_arrivals(0.0, 2.0), 4.0, 1e-9);
  EXPECT_NEAR(s.expected_arrivals(0.5, 1.5), 0.5 + 1.5, 1e-9);
  EXPECT_NEAR(s.expected_arrivals(0.0, 4.0), 8.0, 1e-9);  // one full period x2
}

TEST(RateSchedule, DiurnalPeaksAtPeakTime) {
  const auto s = RateSchedule::diurnal(units::per_second(2.0), units::per_second(10.0), 24.0, /*peak_time=*/14.0);
  EXPECT_NEAR(s.rate_at(14.0).value(), 10.0, 0.2);  // near the peak value
  EXPECT_NEAR(s.rate_at(2.0).value(), 2.0, 0.2);    // trough 12h away
  EXPECT_LE(s.max_rate().value(), 10.0 + 1e-9);
  for (double t = 0.0; t < 24.0; t += 0.7) {
    EXPECT_GE(s.rate_at(t).value(), 2.0 - 1e-9);
    EXPECT_LE(s.rate_at(t).value(), 10.0 + 1e-9);
  }
}

TEST(RateSchedule, FlashCrowdWindow) {
  const auto s = RateSchedule::flash_crowd(units::per_second(1.0), units::per_second(9.0), 40.0, 20.0, 100.0, 100);
  EXPECT_DOUBLE_EQ(s.rate_at(10.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(s.rate_at(50.0).value(), 9.0);
  EXPECT_DOUBLE_EQ(s.rate_at(70.0).value(), 1.0);
  EXPECT_NEAR(s.mean_rate().value(), 0.8 * 1.0 + 0.2 * 9.0, 0.2);
}

TEST(RateSchedule, Mmpp2AlternatesBetweenLevels) {
  const auto s = RateSchedule::mmpp2(units::per_second(1.0), units::per_second(8.0), 10.0, 5.0, 200.0, 42, 400);
  bool saw_low = false, saw_high = false;
  for (double r : s.slot_rates()) {
    if (r == 1.0) saw_low = true;
    if (r == 8.0) saw_high = true;
    EXPECT_TRUE(r == 1.0 || r == 8.0);
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
  // Deterministic in the seed.
  const auto again = RateSchedule::mmpp2(units::per_second(1.0), units::per_second(8.0), 10.0, 5.0, 200.0, 42, 400);
  EXPECT_EQ(s.slot_rates(), again.slot_rates());
}

TEST(RateSchedule, ThinningMatchesExpectedCounts) {
  // Count arrivals per slot over many periods; each slot's count should
  // match its rate integral.
  const RateSchedule s({2.0, 8.0}, 2.0);
  Rng rng(9);
  const double horizon = 4000.0;
  double t = 0.0;
  double in_low = 0.0, in_high = 0.0;
  while (true) {
    t = s.next_arrival(t, rng);
    if (t >= horizon) break;
    if (std::fmod(t, 2.0) < 1.0) in_low += 1.0; else in_high += 1.0;
  }
  // Expected: 2000 slots of each kind x rate x width(1).
  EXPECT_NEAR(in_low, 2.0 * 2000.0, 0.05 * 4000.0);
  EXPECT_NEAR(in_high, 8.0 * 2000.0, 0.05 * 16000.0);
}

TEST(RateSchedule, ThinningTimesStrictlyAdvance) {
  const auto s = RateSchedule::diurnal(units::per_second(1.0), units::per_second(5.0), 10.0);
  Rng rng(4);
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double next = s.next_arrival(t, rng);
    ASSERT_GT(next, t);
    t = next;
  }
}

TEST(RateSchedule, Validation) {
  EXPECT_THROW(RateSchedule({}, 1.0), Error);
  EXPECT_THROW(RateSchedule({1.0}, 0.0), Error);
  EXPECT_THROW(RateSchedule({-1.0}, 1.0), Error);
  EXPECT_THROW(RateSchedule({0.0}, 1.0), Error);  // all-zero has no arrivals
  EXPECT_THROW(RateSchedule::diurnal(units::per_second(5.0), units::per_second(2.0), 24.0), Error);
  EXPECT_THROW(RateSchedule::flash_crowd(units::per_second(1.0), units::per_second(2.0), 90.0, 20.0, 100.0), Error);
  const RateSchedule s({1.0}, 1.0);
  EXPECT_THROW(static_cast<void>(s.rate_at(-1.0)), Error);
}

}  // namespace
}  // namespace cpm::workload
