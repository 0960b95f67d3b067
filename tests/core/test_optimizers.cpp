#include "cpm/core/optimizers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "cpm/check/generator.hpp"
#include "cpm/common/error.hpp"

namespace cpm::core {
namespace {

using queueing::Discipline;

TEST(DelayOptimizer, UnlimitedBudgetRunsFlatOut) {
  const auto model = make_enterprise_model(0.6);
  const double huge_budget = 1e9;
  const auto r = minimize_delay_with_power_budget(model, units::watts(huge_budget));
  ASSERT_TRUE(r.feasible);
  // With no effective power constraint, max frequency minimises delay.
  for (std::size_t i = 0; i < r.frequencies.size(); ++i)
    EXPECT_NEAR(r.frequencies[i], model.max_frequencies()[i], 1e-3);
}

TEST(DelayOptimizer, BudgetBindsAndIsRespected) {
  const auto model = make_enterprise_model(0.6);
  const double p_max = model.power_at(model.max_frequencies()).value();
  const double p_min = model.power_at(model.min_stable_frequencies()).value();
  ASSERT_TRUE(std::isfinite(p_min));
  const double budget = 0.5 * (p_max + p_min);
  const auto r = minimize_delay_with_power_budget(model, units::watts(budget));
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.power.value(), budget * 1.001);
  // With a binding budget the optimum nearly exhausts it.
  EXPECT_GT(r.power.value(), 0.95 * budget);
  EXPECT_GT(r.mean_delay, model.mean_delay_at(model.max_frequencies()));
}

TEST(DelayOptimizer, InfeasibleBudgetReported) {
  const auto model = make_enterprise_model(0.6);
  const double p_min = model.power_at(model.min_stable_frequencies()).value();
  const auto r = minimize_delay_with_power_budget(model, units::watts(0.5 * p_min));
  EXPECT_FALSE(r.feasible);
}

TEST(DelayOptimizer, BeatsUniformBaseline) {
  const auto model = make_enterprise_model(0.7);
  const double p_max = model.power_at(model.max_frequencies()).value();
  const double p_min = model.power_at(model.min_stable_frequencies()).value();
  const double budget = p_min + 0.4 * (p_max - p_min);
  const auto opt = minimize_delay_with_power_budget(model, units::watts(budget));
  const auto base = uniform_frequency_baseline(model, units::watts(budget));
  ASSERT_TRUE(opt.feasible);
  ASSERT_TRUE(base.feasible);
  EXPECT_LE(opt.mean_delay, base.mean_delay * 1.005);
}

TEST(UniformBaseline, AmpleBudgetRunsFlatOut) {
  const auto model = make_enterprise_model(0.7);
  const double p_max = model.power_at(model.max_frequencies()).value();
  for (double budget : {p_max, 2.0 * p_max}) {
    const auto base = uniform_frequency_baseline(model, units::watts(budget));
    ASSERT_TRUE(base.feasible) << budget;
    EXPECT_EQ(base.frequencies, model.max_frequencies()) << budget;
    EXPECT_EQ(base.evaluations, 3) << budget;  // t = 0, t = 1 and the result
  }
}

TEST(UniformBaseline, BudgetBelowFloorIsInfeasibleAtTheFloor) {
  const auto model = make_enterprise_model(0.7);
  const double p_min = model.power_at(model.min_stable_frequencies()).value();
  const auto base = uniform_frequency_baseline(model, units::watts(0.9 * p_min));
  EXPECT_FALSE(base.feasible);
  EXPECT_EQ(base.frequencies, model.min_stable_frequencies());
  EXPECT_EQ(base.evaluations, 2);  // t = 0 and the result
}

TEST(DelayOptimizer, TighterBudgetNeverImprovesDelay) {
  const auto model = make_enterprise_model(0.6);
  const double p_max = model.power_at(model.max_frequencies()).value();
  const double p_min = model.power_at(model.min_stable_frequencies()).value();
  double prev_delay = 0.0;
  for (double t : {0.8, 0.5, 0.25}) {
    const double budget = p_min + t * (p_max - p_min);
    const auto r = minimize_delay_with_power_budget(model, units::watts(budget));
    ASSERT_TRUE(r.feasible) << "t=" << t;
    EXPECT_GE(r.mean_delay.value(), prev_delay * 0.999) << "t=" << t;
    prev_delay = r.mean_delay.value();
  }
}

TEST(EnergyOptimizer, LooseBoundApproachesMinPower) {
  const auto model = make_enterprise_model(0.5);
  const double loose = 100.0;  // seconds; delays here are ~0.1s
  const auto r = minimize_power_with_delay_bound(model, units::seconds(loose));
  ASSERT_TRUE(r.feasible);
  const double p_min = model.power_at(model.min_stable_frequencies()).value();
  ASSERT_TRUE(std::isfinite(p_min));
  EXPECT_NEAR(r.power.value(), p_min, 0.01 * p_min);
}

TEST(EnergyOptimizer, BoundRespectedAndBinding) {
  const auto model = make_enterprise_model(0.6);
  const double d_fast = model.mean_delay_at(model.max_frequencies()).value();
  const double d_slow = model.mean_delay_at(model.min_stable_frequencies()).value();
  double bound;
  if (std::isfinite(d_slow)) {
    bound = 0.5 * (d_fast + d_slow);
  } else {
    bound = 2.0 * d_fast;
  }
  const auto r = minimize_power_with_delay_bound(model, units::seconds(bound));
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.mean_delay.value(), bound * 1.001);
  EXPECT_LT(r.power, model.power_at(model.max_frequencies()));
}

TEST(EnergyOptimizer, InfeasibleBoundReported) {
  const auto model = make_enterprise_model(0.6);
  const double d_fast = model.mean_delay_at(model.max_frequencies()).value();
  const auto r = minimize_power_with_delay_bound(model, units::seconds(0.5 * d_fast));
  EXPECT_FALSE(r.feasible);
}

TEST(EnergyOptimizer, TighterBoundCostsMorePower) {
  const auto model = make_enterprise_model(0.6);
  const double d_fast = model.mean_delay_at(model.max_frequencies()).value();
  double prev_power = 0.0;
  for (double mult : {4.0, 2.0, 1.2}) {  // progressively tighter bounds
    const auto r = minimize_power_with_delay_bound(model, units::seconds(mult * d_fast));
    ASSERT_TRUE(r.feasible) << "mult=" << mult;
    EXPECT_GE(r.power.value(), prev_power * 0.999) << "mult=" << mult;
    prev_power = r.power.value();
  }
}

TEST(EnergyOptimizer, PerClassBoundsRespected) {
  const auto model = make_enterprise_model(0.6);
  const auto fast = model.evaluate(model.max_frequencies());
  ASSERT_TRUE(fast.stable);
  std::vector<units::Seconds> bounds;
  for (units::Seconds d : fast.net.e2e_delay) bounds.push_back(2.0 * d);
  const auto r = minimize_power_with_class_delay_bounds(model, bounds);
  ASSERT_TRUE(r.feasible);
  for (std::size_t k = 0; k < bounds.size(); ++k)
    EXPECT_LE(r.evaluation.net.e2e_delay[k], bounds[k] * 1.001) << "class " << k;
  EXPECT_LT(r.power, fast.energy.cluster_avg_power);
}

TEST(EnergyOptimizer, PerClassTighterThanAggregate) {
  // Adding per-class constraints can only cost more power than the
  // aggregate constraint implied by them.
  const auto model = make_enterprise_model(0.6);
  const auto fast = model.evaluate(model.max_frequencies());
  std::vector<units::Seconds> bounds;
  for (units::Seconds d : fast.net.e2e_delay) bounds.push_back(1.5 * d);
  // Aggregate bound at the traffic-weighted mix of the per-class bounds.
  double agg = 0.0;
  for (std::size_t k = 0; k < bounds.size(); ++k)
    agg += model.classes()[k].rate.value() * bounds[k].value();
  agg /= model.total_rate().value();
  const auto per_class = minimize_power_with_class_delay_bounds(model, bounds);
  const auto aggregate = minimize_power_with_delay_bound(model, units::seconds(agg));
  ASSERT_TRUE(per_class.feasible && aggregate.feasible);
  EXPECT_GE(per_class.power.value(), aggregate.power.value() - 0.5);
}

TEST(CostOptimizer, MeetsAllSlas) {
  const auto model = make_enterprise_model(0.8);
  const auto r = minimize_cost_for_slas(model);
  ASSERT_TRUE(r.feasible);
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const auto& sla = model.classes()[k].sla;
    if (!sla.mean_bounded()) continue;
    EXPECT_LE(r.evaluation.net.e2e_delay[k], sla.max_mean_e2e_delay)
        << model.classes()[k].name;
  }
}

TEST(CostOptimizer, SolutionIsMinimal) {
  // Dropping any server from the optimum must violate some SLA or cost
  // bound (otherwise B&B missed a cheaper point).
  const auto model = make_enterprise_model(0.8);
  const auto r = minimize_cost_for_slas(model);
  ASSERT_TRUE(r.feasible);
  const auto f = model.max_frequencies();
  for (std::size_t i = 0; i < r.servers.size(); ++i) {
    if (r.servers[i] <= 1) continue;
    auto fewer = r.servers;
    fewer[i] -= 1;
    const auto ev = model.with_servers(fewer).evaluate(f);
    bool violates = !ev.stable;
    if (ev.stable) {
      for (std::size_t k = 0; k < model.num_classes(); ++k) {
        const auto& sla = model.classes()[k].sla;
        if (sla.mean_bounded() && ev.net.e2e_delay[k] > sla.max_mean_e2e_delay)
          violates = true;
      }
    }
    EXPECT_TRUE(violates) << "tier " << i << " is over-provisioned";
  }
}

TEST(CostOptimizer, FcfsNeedsAtLeastPriorityCost) {
  // The paper's motivation: priority scheduling protects premium SLAs with
  // fewer resources than FCFS.
  const auto prio = make_enterprise_model(0.85);
  const auto fcfs = prio.with_discipline(Discipline::kFcfs);
  const auto rp = minimize_cost_for_slas(prio);
  const auto rf = minimize_cost_for_slas(fcfs);
  ASSERT_TRUE(rp.feasible);
  ASSERT_TRUE(rf.feasible);
  EXPECT_GE(rf.total_cost, rp.total_cost);
}

TEST(CostOptimizer, GreedyIsFeasibleAndNotCheaperThanExact) {
  const auto model = make_enterprise_model(0.85);
  CostOptOptions greedy_opts;
  greedy_opts.greedy_only = true;
  const auto greedy = minimize_cost_for_slas(model, greedy_opts);
  const auto exact = minimize_cost_for_slas(model);
  ASSERT_TRUE(greedy.feasible && exact.feasible);
  EXPECT_GE(greedy.total_cost, exact.total_cost - 1e-9);
}

TEST(CostOptimizer, InfeasibleSlaReported) {
  auto model = make_enterprise_model(0.8);
  // Rebuild with an impossible gold SLA (below raw service time).
  std::vector<WorkloadClass> classes = model.classes();
  classes[0].sla.max_mean_e2e_delay = units::seconds(1e-6);
  const ClusterModel impossible(model.tiers(), classes);
  const auto r = minimize_cost_for_slas(impossible);
  EXPECT_FALSE(r.feasible);
}

TEST(CostOptimizer, PercentileSlaRequiresAtLeastMeanSlaCost) {
  // Bounding the p95 at the value the mean-SLA solution happens to achieve
  // can only hold or raise the price.
  const auto base = make_enterprise_model(0.8);
  const auto mean_only = minimize_cost_for_slas(base);
  ASSERT_TRUE(mean_only.feasible);
  const double gold_p95 =
      queueing::percentile_e2e_delay(mean_only.evaluation.net, 0, 0.95).value();

  std::vector<WorkloadClass> classes = base.classes();
  classes[0].sla.max_percentile_e2e_delay = units::seconds(gold_p95 * 0.9);  // tighter
  const ClusterModel stricter(base.tiers(), classes);
  const auto with_p95 = minimize_cost_for_slas(stricter);
  ASSERT_TRUE(with_p95.feasible);
  EXPECT_GE(with_p95.total_cost, mean_only.total_cost);
  // And the chosen allocation honours the percentile bound analytically.
  EXPECT_LE(queueing::percentile_e2e_delay(with_p95.evaluation.net, 0, 0.95).value(),
            gold_p95 * 0.9 * 1.0001);
}

TEST(CostOptimizer, PercentileOnlySlaWorks) {
  const auto base = make_enterprise_model(0.8);
  std::vector<WorkloadClass> classes = base.classes();
  for (auto& c : classes) {
    c.sla.max_mean_e2e_delay = units::seconds(std::numeric_limits<double>::infinity());
  }
  classes[0].sla.max_percentile_e2e_delay = units::seconds(0.5);
  classes[0].sla.percentile = 0.95;
  const ClusterModel model(base.tiers(), classes);
  const auto r = minimize_cost_for_slas(model);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(queueing::percentile_e2e_delay(r.evaluation.net, 0, 0.95).value(),
            0.5);
}

TEST(Sla, BoundednessPredicates) {
  Sla none;
  EXPECT_FALSE(none.bounded());
  Sla mean;
  mean.max_mean_e2e_delay = units::seconds(1.0);
  EXPECT_TRUE(mean.bounded());
  EXPECT_TRUE(mean.mean_bounded());
  EXPECT_FALSE(mean.percentile_bounded());
  Sla pct;
  pct.max_percentile_e2e_delay = units::seconds(2.0);
  EXPECT_TRUE(pct.bounded());
  EXPECT_FALSE(pct.mean_bounded());
  EXPECT_TRUE(pct.percentile_bounded());
}

TEST(DiscreteDvfs, GridsSpanTheDvfsRange) {
  const auto model = make_enterprise_model(0.6);
  const auto grids = frequency_grids(model, 5);
  ASSERT_EQ(grids.size(), model.num_tiers());
  for (std::size_t i = 0; i < grids.size(); ++i) {
    ASSERT_EQ(grids[i].size(), 5u);
    EXPECT_DOUBLE_EQ(grids[i].front(), model.min_frequencies()[i]);
    EXPECT_DOUBLE_EQ(grids[i].back(), model.max_frequencies()[i]);
  }
}

TEST(DiscreteDvfs, ResultLiesOnTheGrid) {
  const auto model = make_enterprise_model(0.6);
  const double bound = 2.0 * model.mean_delay_at(model.max_frequencies()).value();
  const int levels = 5;
  const auto r = minimize_power_with_delay_bound(model, units::seconds(bound), levels);
  ASSERT_TRUE(r.feasible);
  const auto grids = frequency_grids(model, levels);
  for (std::size_t i = 0; i < r.frequencies.size(); ++i) {
    bool on_grid = false;
    for (double g : grids[i])
      if (std::abs(g - r.frequencies[i]) < 1e-12) on_grid = true;
    EXPECT_TRUE(on_grid) << "tier " << i;
  }
  EXPECT_LE(r.mean_delay.value(), bound);
}

TEST(DiscreteDvfs, NeverBeatsContinuous) {
  const auto model = make_enterprise_model(0.6);
  const double bound = 2.0 * model.mean_delay_at(model.max_frequencies()).value();
  const auto cont = minimize_power_with_delay_bound(model, units::seconds(bound));
  const auto disc = minimize_power_with_delay_bound(model, units::seconds(bound), 7);
  ASSERT_TRUE(cont.feasible && disc.feasible);
  EXPECT_GE(disc.power.value(), cont.power.value() - 0.5);  // small solver slack
}

TEST(DiscreteDvfs, ConvergesToContinuousWithFinerGrids) {
  const auto model = make_enterprise_model(0.6);
  const double bound = 2.0 * model.mean_delay_at(model.max_frequencies()).value();
  const auto cont = minimize_power_with_delay_bound(model, units::seconds(bound));
  double prev_gap = 1e18;
  for (int levels : {3, 9, 33}) {
    const auto disc = minimize_power_with_delay_bound(model, units::seconds(bound), levels);
    ASSERT_TRUE(disc.feasible) << levels;
    const double gap = disc.power.value() - cont.power.value();
    EXPECT_LE(gap, prev_gap + 0.5) << levels;
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 2.0);  // 33 levels: nearly continuous
}

TEST(DiscreteDvfs, DelayVariantRespectsBudget) {
  const auto model = make_enterprise_model(0.6);
  const double p_max = model.power_at(model.max_frequencies()).value();
  const double p_min = model.power_at(model.min_stable_frequencies()).value();
  const double budget = 0.5 * (p_max + p_min);
  const auto r = minimize_delay_with_power_budget(model, units::watts(budget), 9);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.power.value(), budget);
  const auto cont = minimize_delay_with_power_budget(model, units::watts(budget));
  EXPECT_GE(r.mean_delay.value(), cont.mean_delay.value() - 1e-6);
}

TEST(DiscreteDvfs, InfeasibleReported) {
  const auto model = make_enterprise_model(0.6);
  const double d_fast = model.mean_delay_at(model.max_frequencies()).value();
  const auto r =
      minimize_power_with_delay_bound(model, units::seconds(0.5 * d_fast), 5);
  EXPECT_FALSE(r.feasible);
  EXPECT_THROW(minimize_power_with_delay_bound(model, units::seconds(1.0), 1), Error);
}

TEST(TcoOptimizer, FeasibleAndMeetsSlas) {
  const auto model = make_enterprise_model(0.8);
  TcoOptions opts;
  opts.max_servers_per_tier = 4;
  const auto r = minimize_total_cost_of_ownership(model, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.total_cost, r.capex + r.opex, 1e-9);
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const auto& sla = model.classes()[k].sla;
    if (sla.mean_bounded()) {
      EXPECT_LE(r.evaluation.net.e2e_delay[k], sla.max_mean_e2e_delay);
    }
  }
}

TEST(TcoOptimizer, FreeEnergyReducesToMinimumHardware) {
  // With energy free, TCO = capex, and the solution matches P-C's server
  // counts (it never pays to buy hardware you don't need).
  const auto model = make_enterprise_model(0.8);
  TcoOptions opts;
  opts.energy_price_per_kwh = 0.0;
  opts.max_servers_per_tier = 4;
  const auto tco = minimize_total_cost_of_ownership(model, opts);
  CostOptOptions copts;
  copts.max_servers_per_tier = 4;
  const auto pc = minimize_cost_for_slas(model, copts);
  ASSERT_TRUE(tco.feasible && pc.feasible);
  EXPECT_NEAR(tco.capex, pc.total_cost, 1e-9);
}

TEST(TcoOptimizer, ExpensiveEnergyBuysMoreIronAndClocksLower) {
  // The crossover the TCO program exists for: as energy gets expensive,
  // the optimum adds servers and/or lowers frequencies, trading capex for
  // opex. Verify total power at the optimum is non-increasing in price.
  const auto model = make_enterprise_model(0.8);
  double prev_power = 1e18;
  double prev_capex = 0.0;
  for (double price : {0.0, 0.2, 1.0, 5.0}) {
    TcoOptions opts;
    opts.energy_price_per_kwh = price;
    opts.max_servers_per_tier = 4;
    opts.levels = 5;
    const auto r = minimize_total_cost_of_ownership(model, opts);
    ASSERT_TRUE(r.feasible) << price;
    EXPECT_LE(r.power.value(), prev_power + 1e-6) << price;
    EXPECT_GE(r.capex, prev_capex - 1e-9) << price;  // never buys less iron
    prev_power = r.power.value();
    prev_capex = r.capex;
  }
}

TEST(TcoOptimizer, InfeasibleSlaReported) {
  auto base = make_enterprise_model(0.8);
  std::vector<WorkloadClass> classes = base.classes();
  classes[0].sla.max_mean_e2e_delay = units::seconds(1e-6);
  const ClusterModel impossible(base.tiers(), classes);
  TcoOptions opts;
  opts.max_servers_per_tier = 3;
  const auto r = minimize_total_cost_of_ownership(impossible, opts);
  EXPECT_FALSE(r.feasible);
}

TEST(TcoOptimizer, Validation) {
  const auto model = make_enterprise_model(0.6);
  TcoOptions bad;
  bad.energy_price_per_kwh = -1.0;
  EXPECT_THROW(minimize_total_cost_of_ownership(model, bad), Error);
  bad = TcoOptions{};
  bad.levels = 1;
  EXPECT_THROW(minimize_total_cost_of_ownership(model, bad), Error);
}

// The exhaustive search the TCO program ran before it shared P-C's
// branch-and-bound: every server vector in odometer order (tier 0
// fastest), skipped when its capex and idle energy already cost no less
// than the best so far or when an SLA fails at f_max, else priced at the
// least power over the lattice that meets the SLAs; the first cheapest is
// kept. Mean SLAs only.
TcoResult exhaustive_tco(const ClusterModel& model, const TcoOptions& options) {
  const double kwh_factor = options.energy_price_per_kwh * options.billing_hours / 1000.0;
  std::vector<units::Seconds> bounds;
  for (const WorkloadClass& c : model.classes()) bounds.push_back(c.sla.max_mean_e2e_delay);
  TcoResult best;
  best.total_cost = std::numeric_limits<double>::infinity();
  std::vector<int> n(model.num_tiers(), 1);
  for (;;) {
    double capex = 0.0, idle = 0.0;
    for (std::size_t i = 0; i < n.size(); ++i) {
      capex += model.tiers()[i].server_cost * n[i];
      idle += model.tiers()[i].power.idle_power().value() * n[i];
    }
    const ClusterModel sized = model.with_servers(n);
    const Evaluation fast = sized.evaluate(sized.max_frequencies());
    bool slas_hold = fast.stable;
    for (std::size_t k = 0; slas_hold && k < bounds.size(); ++k)
      slas_hold = !(fast.net.e2e_delay[k] > bounds[k]);
    if (capex + idle * kwh_factor < best.total_cost && slas_hold) {
      const FrequencyOptResult inner =
          minimize_power_with_class_delay_bounds(sized, bounds, options.levels);
      const double total = capex + inner.power.value() * kwh_factor;
      if (inner.feasible && total < best.total_cost) {
        best.servers = n;
        best.frequencies = inner.frequencies;
        best.total_cost = total;
        best.feasible = true;
      }
    }
    std::size_t d = 0;
    while (d < n.size() && ++n[d] > options.max_servers_per_tier) n[d++] = 1;
    if (d == n.size()) return best;
  }
}

TEST(TcoOptimizer, MatchesExhaustiveSearch) {
  // Seeded models with each class's mean SLA at 1.5x or 3x its delay at
  // f_max, over energy prices from free to dear and two fleet caps: the
  // branch-and-bound returns the exhaustive search's answer bit for bit.
  check::GeneratorOptions gen_options;
  gen_options.util_cap = 0.8;
  check::ModelGenerator gen(20261019, gen_options);
  int cases = 0, feasible = 0;
  for (int m = 0; m < 60; ++m) {
    const ClusterModel drawn = gen.next();
    const Evaluation fast = drawn.evaluate(drawn.max_frequencies());
    std::vector<WorkloadClass> classes = drawn.classes();
    for (std::size_t k = 0; k < classes.size(); ++k) {
      const double factor = (static_cast<std::size_t>(m) + k) % 2 ? 3.0 : 1.5;
      classes[k].sla.max_mean_e2e_delay = fast.net.e2e_delay[k] * factor;
    }
    const ClusterModel model(drawn.tiers(), classes);
    for (const double price : {0.0, 0.1, 1.0, 4.0}) {
      for (const int max_servers : {2, 4}) {
        TcoOptions opts;
        opts.energy_price_per_kwh = price;
        opts.max_servers_per_tier = max_servers;
        opts.levels = 4;
        SCOPED_TRACE("model " + std::to_string(m) + ", price " + std::to_string(price) +
                     ", max servers " + std::to_string(max_servers));
        const TcoResult ours = minimize_total_cost_of_ownership(model, opts);
        const TcoResult oracle = exhaustive_tco(model, opts);
        ++cases;
        ASSERT_EQ(ours.feasible, oracle.feasible);
        if (!oracle.feasible) continue;
        ++feasible;
        EXPECT_EQ(ours.total_cost, oracle.total_cost);
        EXPECT_EQ(ours.servers, oracle.servers);
        EXPECT_EQ(ours.frequencies, oracle.frequencies);
      }
    }
  }
  EXPECT_EQ(cases, 480);
  EXPECT_GT(feasible, cases / 2);
  EXPECT_LT(feasible, cases);
}

TEST(Optimizers, InputValidation) {
  const auto model = make_enterprise_model(0.6);
  EXPECT_THROW(minimize_delay_with_power_budget(model, units::watts(-1.0)), Error);
  EXPECT_THROW(minimize_power_with_delay_bound(model, units::seconds(0.0)), Error);
  EXPECT_THROW(
      minimize_power_with_class_delay_bounds(model, {units::seconds(1.0)}),
      Error);
  // levels is 0 (the continuum) or a lattice of at least 2 levels.
  const std::vector<units::Seconds> bounds(model.num_classes(), units::seconds(1.0));
  for (const int levels : {1, -1}) {
    EXPECT_THROW(minimize_delay_with_power_budget(model, units::watts(700.0), levels), Error);
    EXPECT_THROW(minimize_power_with_delay_bound(model, units::seconds(1.0), levels), Error);
    EXPECT_THROW(minimize_power_with_class_delay_bounds(model, bounds, levels), Error);
  }
  const units::Seconds bound = model.mean_delay_at(model.max_frequencies()) * 2.0;
  const FrequencyOptResult two_args = minimize_power_with_delay_bound(model, bound);
  const FrequencyOptResult level_zero = minimize_power_with_delay_bound(model, bound, 0);
  EXPECT_EQ(level_zero.frequencies, two_args.frequencies);
  EXPECT_EQ(level_zero.power.value(), two_args.power.value());
  EXPECT_EQ(level_zero.evaluations, two_args.evaluations);
  CostOptOptions bad;
  bad.max_servers_per_tier = 0;
  EXPECT_THROW(minimize_cost_for_slas(model, bad), Error);
}

}  // namespace
}  // namespace cpm::core
