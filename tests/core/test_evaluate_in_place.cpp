// Evaluation in place, through a TierTable, and the stability decision it
// shares with the one-shot ClusterModel::evaluate.
//
//   * Through one table per model, reused across its points, every point
//     of 200 generated models evaluates bit for bit as a fresh one-shot
//     evaluate does, visited in a shuffled order that interleaves models
//     of different shapes, stable and unstable points, and tiers that
//     switch between the single- and multi-server formulas.
//   * A table counts every operating point it reads, and analyses each
//     tier once per distinct (servers, frequency).
//   * Within a few ulps of utilisation 1 a multi-server tier is reported
//     unstable instead of throwing or yielding an infinite delay.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpm/check/generator.hpp"
#include "cpm/common/error.hpp"
#include "cpm/common/rng.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/core/preconditions.hpp"
#include "cpm/core/tier_table.hpp"

namespace cpm::core {
namespace {

using queueing::Discipline;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

template <class Q>
std::uint64_t bits(Q q) {
  return bits(q.value());
}

template <class T>
void expect_same(const std::vector<T>& got, const std::vector<T>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(bits(got[i]), bits(want[i])) << what << "[" << i << "]";
}

void expect_same(const std::vector<std::vector<double>>& got,
                 const std::vector<std::vector<double>>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    expect_same(got[i], want[i], what + "[" + std::to_string(i) + "]");
}

// Every field of two evaluations agrees bit for bit. At an unstable point
// only `stable` and the accessors are defined.
void expect_same(const Evaluation& got, const Evaluation& want) {
  ASSERT_EQ(got.stable, want.stable);
  EXPECT_EQ(bits(got.power()), bits(want.power()));
  EXPECT_EQ(bits(got.mean_delay()), bits(want.mean_delay()));
  if (!want.stable) return;
  const auto& a = got.net;
  const auto& b = want.net;
  expect_same(a.e2e_delay, b.e2e_delay, "e2e_delay");
  expect_same(a.e2e_delay_variance, b.e2e_delay_variance, "e2e_delay_variance");
  expect_same(a.station_wait, b.station_wait, "station_wait");
  expect_same(a.station_rho, b.station_rho, "station_rho");
  expect_same(a.station_utilization, b.station_utilization, "station_utilization");
  EXPECT_EQ(bits(a.mean_e2e_delay), bits(b.mean_e2e_delay)) << "mean_e2e_delay";
  const auto& e = got.energy;
  const auto& f = want.energy;
  EXPECT_EQ(bits(e.cluster_avg_power), bits(f.cluster_avg_power)) << "cluster_avg_power";
  expect_same(e.station_avg_power, f.station_avg_power, "station_avg_power");
  expect_same(e.per_request_energy, f.per_request_energy, "per_request_energy");
  expect_same(e.marginal_energy, f.marginal_energy, "marginal_energy");
}

struct Point {
  std::size_t model = 0;
  std::vector<double> frequencies;
};

// `m` with every class's route cut to a random non-empty subset of its
// steps, sometimes plus a second visit to one of them: classes skip
// stations, some stations carry no flow, and repeated visits merge.
ClusterModel reroute(const ClusterModel& m, Rng& rng) {
  std::vector<WorkloadClass> classes = m.classes();
  for (auto& c : classes) {
    std::vector<Demand> route;
    for (const auto& d : c.route)
      if (rng.uniform01() < 0.6) route.push_back(d);
    if (route.empty()) route.push_back(c.route[rng.below(c.route.size())]);
    if (rng.uniform01() < 0.3) route.push_back(route[rng.below(route.size())]);
    c.route = std::move(route);
  }
  return ClusterModel(m.tiers(), std::move(classes));
}

TEST(EvaluateInPlace, ReusedTablesMatchOneShotBitForBit) {
  // Half the models put their busiest tier at utilisation 0.999 at f_max,
  // so most lower frequencies saturate it; the other half use the default
  // envelope with up to four servers per tier. Every generated class
  // visits every tier once, so some models get new routes.
  check::GeneratorOptions near;
  near.util_cap = 0.999;
  check::GeneratorOptions usual;
  usual.max_servers = 4;
  check::ModelGenerator near_models(101, near);
  check::ModelGenerator usual_models(202, usual);
  Rng rng(303);

  std::vector<ClusterModel> models;
  std::vector<Point> points;
  for (std::size_t i = 0; i < 200; ++i) {
    ClusterModel m = i % 2 == 0 ? near_models.next() : usual_models.next();
    if (i % 3 == 0) {
      // Another server count per tier: tiers cross between the
      // single-server and multi-server formulas.
      std::vector<int> servers(m.num_tiers());
      for (int& n : servers) n = 1 + static_cast<int>(rng.below(3));
      m = m.with_servers(servers);
    }
    if (i % 4 == 1) m = reroute(m, rng);
    const auto lo = m.min_frequencies();
    const auto hi = m.max_frequencies();
    points.push_back({models.size(), hi});
    points.push_back({models.size(), lo});
    for (int j = 0; j < 3; ++j) {
      std::vector<double> f(m.num_tiers());
      for (std::size_t t = 0; t < f.size(); ++t) f[t] = rng.uniform(lo[t], hi[t]);
      points.push_back({models.size(), f});
    }
    models.push_back(std::move(m));
  }
  // Shuffle (Fisher-Yates) so consecutive points come from different models.
  for (std::size_t i = points.size() - 1; i > 0; --i)
    std::swap(points[i], points[rng.below(i + 1)]);

  std::vector<std::unique_ptr<TierTable>> tables;
  for (const ClusterModel& m : models)
    tables.push_back(std::make_unique<TierTable>(m));
  int stable = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    SCOPED_TRACE("point " + std::to_string(i) + " of model " + std::to_string(p.model));
    const Evaluation& ev = tables[p.model]->evaluate(p.frequencies);
    expect_same(ev, models[p.model].evaluate(p.frequencies));
    stable += ev.stable ? 1 : 0;
  }
  // Both outcomes occur, often enough to interleave.
  EXPECT_GT(stable, 200);
  EXPECT_LT(stable, static_cast<int>(points.size()) - 200);
}

TEST(EvaluateInPlace, UnstablePointLeavesOnlyTheFlag) {
  const auto model = make_enterprise_model(0.9);
  TierTable table(model);
  const Evaluation& ev = table.evaluate(model.max_frequencies());
  ASSERT_TRUE(ev.stable);
  const auto delays = ev.net.e2e_delay;
  EXPECT_EQ(&table.evaluate(model.min_frequencies()), &ev);
  EXPECT_FALSE(ev.stable);
  EXPECT_EQ(ev.power(), units::Watts::infinity());
  EXPECT_EQ(ev.net.e2e_delay, delays);
  // The one-shot form reports no metrics at an unstable point.
  const Evaluation fresh = model.evaluate(model.min_frequencies());
  EXPECT_FALSE(fresh.stable);
  EXPECT_TRUE(fresh.net.e2e_delay.empty());
  EXPECT_TRUE(fresh.energy.per_request_energy.empty());
}

TEST(EvaluateInPlace, InvalidFrequenciesThrowBeforeWriting) {
  const auto model = make_enterprise_model(0.6);
  TierTable table(model);
  const Evaluation& ev = table.evaluate(model.max_frequencies());
  const Evaluation before = ev;
  EXPECT_THROW(table.evaluate({1.0, 1.0}), Error);
  EXPECT_THROW(table.evaluate({0.1, 1.0, 1.0}), Error);
  EXPECT_TRUE(ev.stable);
  EXPECT_EQ(ev.net.e2e_delay, before.net.e2e_delay);
  table.evaluate(model.max_frequencies());
  expect_same(ev, before);
}

TEST(TierTable, CountsEveryPointItReads) {
  const auto model = make_enterprise_model(0.6);
  TierTable table(model);
  ASSERT_EQ(table.servers(), (std::vector<int>{2, 1, 1}));
  const std::vector<double> f = model.max_frequencies();
  EXPECT_EQ(table.units(table.servers(), f).size(), 3U);
  EXPECT_EQ(table.evaluations(), 1);
  EXPECT_EQ(table.analyses(), 3);
  // The same point, whole and for its power: counted, not analysed again.
  EXPECT_TRUE(table.evaluate(f).stable);
  EXPECT_EQ(bits(table.power(f)), bits(model.power_at(f)));
  EXPECT_EQ(table.evaluations(), 3);
  EXPECT_EQ(table.analyses(), 3);
  // Another fleet analyses only the tier whose server count changed, once.
  const std::vector<int> fleet = {2, 3, 1};
  EXPECT_TRUE(table.evaluate(fleet, f).stable);
  EXPECT_EQ(bits(table.power(fleet, f)),
            bits(model.with_servers(fleet).power_at(f)));
  EXPECT_EQ(table.evaluations(), 5);
  EXPECT_EQ(table.analyses(), 4);
  // One tier at another frequency: one more analysis.
  std::vector<double> g = f;
  g[2] = 0.8;
  EXPECT_TRUE(table.evaluate(g).stable);
  EXPECT_EQ(table.evaluations(), 6);
  EXPECT_EQ(table.analyses(), 5);
  // A point with a frequency outside the DVFS range, or without one per
  // tier, throws before it is counted or analysed.
  EXPECT_THROW(table.units(table.servers(), {1.0, 1.0, 0.1}), Error);
  EXPECT_THROW(table.evaluate({0.8, 1.0}), Error);
  EXPECT_THROW(table.power({0.8, 1.0, 9.0}), Error);
  EXPECT_THROW(table.power({2, 1}, f), Error);
  EXPECT_EQ(table.evaluations(), 6);
  EXPECT_EQ(table.analyses(), 5);
}

// One tier of `servers` servers and three classes with exponential demands
// `means` at rates `rates`, all at f_base = f_max = 1.
ClusterModel one_tier(int servers, Discipline discipline, const double (&means)[3],
                      const double (&rates)[3]) {
  std::vector<WorkloadClass> classes;
  for (int k = 0; k < 3; ++k)
    classes.push_back(WorkloadClass{"c" + std::to_string(k), units::per_second(rates[k]),
                                    {Demand{0, Distribution::exponential(means[k])}},
                                    Sla{}});
  return ClusterModel({Tier{"t0", servers, discipline}}, std::move(classes));
}

TEST(EvaluateNearSaturation, TwoServerPsTierReportsUnstable) {
  // Its utilisation rounds to just below 1, but the M/M/2 offered load
  // lambda / (1 / E[S]) rounds to 2, where mmc_mean_wait would throw: the
  // evaluation must report the point unstable instead.
  const auto model = one_tier(2, Discipline::kProcessorSharing,
                              {0.66741526793360417, 0.95785626854405581,
                               0.89427392667202565},
                              {0.62606458013776223, 1.6186736013097127,
                               0.035445833560515852});
  const auto f = model.max_frequencies();
  Evaluation ev;
  ASSERT_NO_THROW(ev = model.evaluate(f));
  EXPECT_FALSE(ev.stable);
  EXPECT_EQ(ev.mean_delay(), units::Seconds::infinity());
}

TEST(EvaluateNearSaturation, EvaluateStableNamesTheTierWithoutClaimingRhoOne) {
  // The same tier: its utilisation is below 1, so the [CPM-L001] message
  // names it with that utilisation rather than claiming rho >= 1.
  const auto model = one_tier(2, Discipline::kProcessorSharing,
                              {0.66741526793360417, 0.95785626854405581,
                               0.89427392667202565},
                              {0.62606458013776223, 1.6186736013097127,
                               0.035445833560515852});
  const auto f = model.max_frequencies();
  ASSERT_LT(tier_utilizations(model, f)[0], 1.0);
  try {
    static_cast<void>(evaluate_stable(model, f, "here"));
    FAIL() << "an unstable evaluation must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("here: [CPM-L001] ", 0), 0U) << what;
    EXPECT_NE(what.find("'t0'"), std::string::npos) << what;
    EXPECT_NE(what.find("< 1"), std::string::npos) << what;
    EXPECT_EQ(what.find(">= 1"), std::string::npos) << what;
  }
}

TEST(EvaluateNearSaturation, SeededScanNeverThrowsAndStableMeansFinite) {
  // 20k single-tier models: 1 to 5 servers, every discipline, three
  // exponential classes, rates scaled so the utilisation is
  // 1 - k * 2^-52 for k = 1..4 before rounding.
  const Discipline disciplines[] = {Discipline::kFcfs, Discipline::kNonPreemptivePriority,
                                    Discipline::kPreemptiveResume,
                                    Discipline::kProcessorSharing};
  Rng rng(20110516);
  int stable = 0;
  int load_below_one_yet_unstable = 0;
  for (int i = 0; i < 20000; ++i) {
    const int servers = 1 + static_cast<int>(rng.below(5));
    const Discipline discipline = disciplines[rng.below(4)];
    const double target = 1.0 - static_cast<double>(1 + rng.below(4)) * 0x1p-52;
    double means[3];
    double rates[3];
    double load = 0.0;
    for (int k = 0; k < 3; ++k) {
      means[k] = rng.uniform(0.05, 1.0);
      rates[k] = rng.uniform(0.01, 2.0);
      load += rates[k] * means[k];
    }
    const double scale = target * static_cast<double>(servers) / load;
    for (double& r : rates) r *= scale;
    const auto model = one_tier(servers, discipline, means, rates);
    const auto f = model.max_frequencies();
    SCOPED_TRACE("probe " + std::to_string(i));

    Evaluation ev;
    ASSERT_NO_THROW(ev = model.evaluate(f));
    if (ev.stable) {
      ++stable;
      for (const auto d : ev.net.e2e_delay) {
        ASSERT_TRUE(std::isfinite(d.value()));
        ASSERT_GT(d.value(), 0.0);
      }
      ASSERT_TRUE(std::isfinite(ev.mean_delay().value()));
      ASSERT_TRUE(std::isfinite(ev.power().value()));
    } else {
      const auto util = tier_utilizations(model, f);
      if (util[0] < 1.0) ++load_below_one_yet_unstable;
    }
  }
  // The scan straddles utilisation 1 and reaches the points that only the
  // full decision finds unstable.
  EXPECT_GT(stable, 1000);
  EXPECT_GT(load_below_one_yet_unstable, 0);
}

}  // namespace
}  // namespace cpm::core
