#include "cpm/opt/nelder_mead.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "cpm/common/error.hpp"

namespace cpm::opt {
namespace {

Box unit_box(std::size_t n, double lo = -10.0, double hi = 10.0) {
  return Box{std::vector<double>(n, lo), std::vector<double>(n, hi)};
}

TEST(NelderMead, QuadraticBowl2D) {
  auto f = [](const std::vector<double>& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  const auto r = nelder_mead(f, unit_box(2), {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], -2.0, 1e-4);
  EXPECT_NEAR(r.value, 0.0, 1e-7);
}

TEST(NelderMead, Rosenbrock2D) {
  auto f = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions opts;
  opts.max_iter = 10000;
  const auto r = nelder_mead(f, unit_box(2, -5.0, 5.0), {-1.2, 1.0}, opts);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(NelderMead, RespectsBoxWhenMinimumOutside) {
  // Unconstrained minimum at (5, 5); box caps at 2.
  auto f = [](const std::vector<double>& x) {
    return (x[0] - 5.0) * (x[0] - 5.0) + (x[1] - 5.0) * (x[1] - 5.0);
  };
  const Box box{{0.0, 0.0}, {2.0, 2.0}};
  const auto r = nelder_mead(f, box, {1.0, 1.0});
  EXPECT_NEAR(r.x[0], 2.0, 1e-4);
  EXPECT_NEAR(r.x[1], 2.0, 1e-4);
}

TEST(NelderMead, HandlesInfiniteRegions) {
  // Infinite objective outside a disc: the solver must still find the
  // minimum inside (mimics unstable queueing allocations).
  auto f = [](const std::vector<double>& x) {
    const double r2 = x[0] * x[0] + x[1] * x[1];
    if (r2 > 4.0) return std::numeric_limits<double>::infinity();
    return (x[0] - 0.5) * (x[0] - 0.5) + x[1] * x[1];
  };
  const auto r = nelder_mead(f, unit_box(2, -3.0, 3.0), {-1.0, 1.0});
  EXPECT_NEAR(r.x[0], 0.5, 1e-3);
  EXPECT_NEAR(r.x[1], 0.0, 1e-3);
}

TEST(NelderMead, StartAtUpperBoundStepsInward) {
  auto f = [](const std::vector<double>& x) { return x[0] * x[0]; };
  const Box box{{-1.0}, {1.0}};
  const auto r = nelder_mead(f, box, {1.0});  // start at the edge
  EXPECT_NEAR(r.x[0], 0.0, 1e-4);
}

TEST(NelderMead, OneDimensional) {
  auto f = [](const std::vector<double>& x) { return std::cosh(x[0] - 0.7); };
  const auto r = nelder_mead(f, unit_box(1), {5.0});
  EXPECT_NEAR(r.x[0], 0.7, 1e-4);
}

TEST(NelderMead, FiveDimensionalSphere) {
  auto f = [](const std::vector<double>& x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - static_cast<double>(i);
      s += d * d;
    }
    return s;
  };
  NelderMeadOptions opts;
  opts.max_iter = 20000;
  const auto r = nelder_mead(f, unit_box(5), std::vector<double>(5, 5.0), opts);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(r.x[i], static_cast<double>(i), 1e-3);
}

TEST(NelderMead, DimensionMismatchThrows) {
  auto f = [](const std::vector<double>& x) { return x[0]; };
  EXPECT_THROW(nelder_mead(f, unit_box(2), {0.0}), Error);
}

TEST(MultistartNelderMead, EscapesLocalMinima) {
  // Double well: local minimum at x=-1 (value 0.5), global at x=2 (value 0).
  auto f = [](const std::vector<double>& x) {
    const double a = (x[0] + 1.0) * (x[0] + 1.0) + 0.5;
    const double b = (x[0] - 2.0) * (x[0] - 2.0);
    return std::min(a, b);
  };
  const auto r = multistart_nelder_mead(f, unit_box(1, -4.0, 4.0), 12);
  EXPECT_NEAR(r.x[0], 2.0, 1e-3);
  EXPECT_NEAR(r.value, 0.0, 1e-6);
}

TEST(MultistartNelderMead, DeterministicForFixedSeed) {
  auto f = [](const std::vector<double>& x) {
    return std::sin(3.0 * x[0]) + 0.1 * x[0] * x[0];
  };
  const auto a = multistart_nelder_mead(f, unit_box(1, -5.0, 5.0), 6, 99);
  const auto b = multistart_nelder_mead(f, unit_box(1, -5.0, 5.0), 6, 99);
  EXPECT_DOUBLE_EQ(a.x[0], b.x[0]);
  EXPECT_DOUBLE_EQ(a.value, b.value);
}

// Results recorded bit for bit, so that a change to the solver's
// bookkeeping (buffers, vertex storage) that alters one probe fails here.
// Between them the runs below clamp trial points to the box and take
// every kind of step: reflection, expansion, outside and inside
// contraction, and shrink (the last through a wall of +infinity, as
// unstable allocations present it).
std::string bits_of(const VectorResult& r) {
  std::string s;
  char buf[40];
  for (double x : r.x) {
    std::snprintf(buf, sizeof buf, "%016llx ",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
    s += buf;
  }
  std::snprintf(buf, sizeof buf, "| %016llx | %d | %d",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(r.value)),
                r.iterations, r.converged ? 1 : 0);
  return s + buf;
}

double clamped_bowl(const std::vector<double>& x) {
  return (x[0] - 5.0) * (x[0] - 5.0) + 3.0 * (x[1] - 4.0) * (x[1] - 4.0) + x[0] * x[1];
}

double walled_rosenbrock(const std::vector<double>& x) {
  if (x[0] + x[1] + x[2] > 2.5) return std::numeric_limits<double>::infinity();
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = 1.0 - x[i];
    const double b = x[i + 1] - x[i] * x[i];
    s += a * a + 100.0 * b * b;
  }
  return s;
}

double abs_ridge(const std::vector<double>& x) {
  return std::fabs(x[0] - 0.3) + 5.0 * std::fabs(x[1] + 0.2 - x[0]);
}

double bumpy(const std::vector<double>& x) {
  return std::sin(3.0 * x[0]) * std::cos(2.0 * x[1]) + 0.05 * (x[0] * x[0] + x[1] * x[1]);
}

TEST(NelderMeadBits, RecordedResults) {
  NelderMeadOptions loose;
  loose.max_iter = 60;
  const std::string got[] = {
      bits_of(nelder_mead(clamped_bowl, Box{{0.0, 0.0}, {2.0, 3.0}}, {1.0, 1.0})),
      bits_of(nelder_mead(walled_rosenbrock, unit_box(3, -2.0, 2.0), {-1.5, 1.8, 0.3})),
      bits_of(nelder_mead(walled_rosenbrock, unit_box(3, -2.0, 2.0), {0.9, 0.8, 0.7},
                          loose)),
      bits_of(nelder_mead(abs_ridge, unit_box(2, -1.0, 1.0), {-0.8, 0.9})),
      bits_of(multistart_nelder_mead(bumpy, unit_box(2, -3.0, 3.0), 5, 7)),
      bits_of(multistart_nelder_mead(walled_rosenbrock, unit_box(3, -2.0, 2.0), 4, 11)),
  };
  // Recorded before the solver reused its vertex buffers.
  const std::string want[] = {
      "4000000000000000 4008000000000000 | 4032000000000000 | 39 | 1",
      "3fed8969c1814cee 3feb428b883ad4ee 3fe7340ab642ce82 | 3f9c925dee1f2c0b | 249 | 1",
      "3fed8791e74e1763 3feb452c309c745e 3fe7316ac8046d1c | 3f9cbb368fcb5395 | 60 | 0",
      "3fd33333333b75e8 3fb9999999bfa2d4 | 3dcd016e00000000 | 91 | 1",
      "bfe0922f9866f6b4 3e984ab02714f79f | bfef90f09b171f77 | 48 | 1",
      "3fed8969a330af3c 3feb428b6d3897c6 3fe7340aef96b099 | 3f9c925dedfe5b3b | 295 | 1",
  };
  for (std::size_t i = 0; i < std::size(want); ++i) EXPECT_EQ(got[i], want[i]) << "run " << i;
}

TEST(BoxType, ValidationAndProjection) {
  Box bad{{1.0}, {0.0}};
  EXPECT_THROW(bad.validate(), Error);
  Box box{{0.0, -1.0}, {1.0, 1.0}};
  const auto p = box.project({2.0, -3.0});
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], -1.0);
  const auto c = box.center();
  EXPECT_DOUBLE_EQ(c[0], 0.5);
  EXPECT_DOUBLE_EQ(c[1], 0.0);
}

}  // namespace
}  // namespace cpm::opt
