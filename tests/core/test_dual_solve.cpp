// The continuous programs on the dual (docs/model.md §4): exact work
// counts, bounds met with no overshoot, optima no worse than the lattice's
// over a seeded alpha envelope, the optimality condition read off the model
// by finite differences, unloaded tiers and infeasible programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>

#include "cpm/check/generator.hpp"
#include "cpm/common/json.hpp"
#include "cpm/common/rng.hpp"
#include "cpm/core/model_io.hpp"
#include "cpm/core/optimizers.hpp"

namespace cpm::core {
namespace {

ClusterModel load_model(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return model_from_json(Json::parse(text.str()));
}

ClusterModel enterprise_load70() {
  return load_model(std::string(CPM_MODELS_DIR) + "/enterprise_load70.json");
}

// Every tier's power curve rebuilt at `alpha(i)`, with the same idle and
// busy-at-f_base endpoints and DVFS range.
template <class Alpha>
ClusterModel with_alpha(const ClusterModel& model, Alpha alpha) {
  std::vector<Tier> tiers = model.tiers();
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const power::ServerPower& p = tiers[i].power;
    const units::Watts busy = p.idle_power() + p.dynamic_power(p.dvfs().f_base);
    tiers[i].power = power::ServerPower(p.idle_power(), busy, alpha(i), p.dvfs());
  }
  return ClusterModel(std::move(tiers), model.classes());
}

double halfway_budget(const ClusterModel& model) {
  const double p_min = model.power_at(model.min_stable_frequencies()).value();
  const double p_max = model.power_at(model.max_frequencies()).value();
  return 0.5 * (p_min + p_max);
}

// Central finite-difference gradient of `f` at `x` inside the box
// lo <= x <= hi, one-sided at a face of the box: the optimality oracle
// below reads marginal power and delay off the model with it, apart from
// the solver's own stencil.
std::vector<double> numerical_gradient(const std::function<double(const std::vector<double>&)>& f,
                                       const std::vector<double>& lo,
                                       const std::vector<double>& hi,
                                       const std::vector<double>& x, double rel_step = 1e-6) {
  std::vector<double> g(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double span = hi[i] - lo[i];
    const double h = rel_step * (span > 0.0 ? span : 1.0);
    const double xp = std::min(x[i] + h, hi[i]);
    const double xm = std::max(x[i] - h, lo[i]);
    if (xp == xm) continue;  // degenerate axis
    std::vector<double> xx = x;
    xx[i] = xp;
    const double fp = f(xx);
    xx[i] = xm;
    const double fm = f(xx);
    g[i] = (fp - fm) / (xp - xm);
  }
  return g;
}

TEST(NumericalGradient, MatchesAnalyticOnQuadratic) {
  auto f = [](const std::vector<double>& x) {
    return 2.0 * x[0] * x[0] + 3.0 * x[1] * x[1] + x[0] * x[1];
  };
  const auto g = numerical_gradient(f, {-10.0, -10.0}, {10.0, 10.0}, {1.0, -2.0});
  // df/dx0 = 4 x0 + x1 = 2; df/dx1 = 6 x1 + x0 = -11.
  EXPECT_NEAR(g[0], 2.0, 1e-4);
  EXPECT_NEAR(g[1], -11.0, 1e-4);
}

TEST(NumericalGradient, OneSidedAtBoundary) {
  auto f = [](const std::vector<double>& x) { return x[0] * x[0]; };
  const auto g = numerical_gradient(f, {0.0}, {1.0}, {0.0});
  EXPECT_NEAR(g[0], 0.0, 1e-4);  // derivative at 0 via forward difference
  const auto g1 = numerical_gradient(f, {0.0}, {1.0}, {1.0});
  EXPECT_NEAR(g1[0], 2.0, 1e-4);
}

std::vector<units::Seconds> class_bounds(const ClusterModel& model, double factor) {
  const Evaluation fast = model.evaluate(model.max_frequencies());
  std::vector<units::Seconds> bounds;
  for (units::Seconds d : fast.net.e2e_delay) bounds.push_back(d * factor);
  return bounds;
}

TEST(DualSolve, ExactEvaluationCounts) {
  // docs/model.md §4's nine points: each program on enterprise_load70 at
  // three rate scales, P-E bounds at 3x the f_max delay(s), the P-D budget
  // halfway between the floor and f_max power. Every operating point the
  // solve evaluates counts, the final one included; a station analysis is
  // one tier unit, computed once per distinct (tier, frequency).
  struct Counts {
    double scale;
    long power_bound, class_bounds, power_budget;  // evaluations
    long power_bound_units, class_bounds_units, power_budget_units;
  };
  const ClusterModel base = enterprise_load70();
  for (const Counts& c : {Counts{0.7, 72, 75, 97, 93, 95, 200},
                          Counts{0.925, 117, 123, 184, 126, 132, 226},
                          Counts{1.2, 99, 102, 189, 150, 153, 228}}) {
    SCOPED_TRACE(c.scale);
    const ClusterModel model = base.with_rate_scale(c.scale);
    const auto pe = minimize_power_with_delay_bound(
        model, model.mean_delay_at(model.max_frequencies()) * 3.0);
    const auto each = minimize_power_with_class_delay_bounds(model, class_bounds(model, 3.0));
    const auto pd = minimize_delay_with_power_budget(model, units::watts(halfway_budget(model)));
    ASSERT_TRUE(pe.feasible && each.feasible && pd.feasible);
    EXPECT_EQ(pe.evaluations, c.power_bound);
    EXPECT_EQ(each.evaluations, c.class_bounds);
    EXPECT_EQ(pd.evaluations, c.power_budget);
    EXPECT_EQ(pe.station_analyses, c.power_bound_units);
    EXPECT_EQ(each.station_analyses, c.class_bounds_units);
    EXPECT_EQ(pd.station_analyses, c.power_budget_units);
    // The table pays: fewer analyses than one per tier per evaluation.
    const auto tiers = static_cast<long>(model.num_tiers());
    for (const FrequencyOptResult* r : {&pe, &each, &pd})
      EXPECT_LT(r->station_analyses, tiers * r->evaluations);
  }
}

TEST(DualSolve, LatticeAndBaselineCountEvaluations) {
  // The lattice evaluates every grid point at or above each tier's
  // stability floor once, and analyses each tier at most once per level;
  // the baseline evaluates every bisection probe, its first and the final
  // evaluation included.
  const ClusterModel model = enterprise_load70();
  const units::Seconds bound = model.mean_delay_at(model.max_frequencies()) * 3.0;
  // 5 levels: of 125 grid points, 75 lie at or above the db tier's floor,
  // which leaves 2 of the db tier's 5 levels unanalysed.
  const auto five = minimize_power_with_delay_bound(model, bound, 5);
  EXPECT_EQ(five.evaluations, 75);
  EXPECT_EQ(five.station_analyses, 13);
  const auto nine =
      minimize_delay_with_power_budget(model, units::watts(halfway_budget(model)), 9);
  EXPECT_EQ(nine.evaluations, 486);
  EXPECT_EQ(nine.station_analyses, 24);
  EXPECT_LE(nine.station_analyses, 9 * static_cast<long>(model.num_tiers()));
  // The probes at t = 0 and t = 1, 34 bisections down to 1e-10 and the
  // final evaluation, which repeats a probe.
  const auto uniform = uniform_frequency_baseline(model, units::watts(halfway_budget(model)));
  EXPECT_EQ(uniform.evaluations, 37);
  EXPECT_EQ(uniform.station_analyses, 108);
}

TEST(DualSolve, SizingAnalysesEachServerCountOnce) {
  // P-C at the three rate scales: every branch-and-bound node evaluates the
  // SLAs at f_max with its server counts, and the final evaluation repeats
  // the optimum's. A tier is analysed once per server count it is probed
  // at, so at most max_servers_per_tier times.
  const ClusterModel base = enterprise_load70();
  const CostOptOptions options;
  for (const double scale : {0.7, 0.925, 1.2}) {
    SCOPED_TRACE(scale);
    const CostOptResult r = minimize_cost_for_slas(base.with_rate_scale(scale), options);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.nodes_explored, 139);
    EXPECT_EQ(r.evaluations, 140);
    EXPECT_EQ(r.station_analyses, 72);
    EXPECT_LE(r.station_analyses,
              options.max_servers_per_tier * static_cast<long>(base.num_tiers()));
  }
}

// Checks a feasible continuous optimum against the bound and against the
// 9-level lattice's optimum for the same bound.
void expect_on_bound_and_no_worse(const ClusterModel& model, bool power_problem,
                                  double bound, const std::string& where) {
  SCOPED_TRACE(where);
  const FrequencyOptResult r =
      power_problem ? minimize_power_with_delay_bound(model, units::seconds(bound))
                    : minimize_delay_with_power_budget(model, units::watts(bound));
  ASSERT_TRUE(r.feasible);
  const double constraint = power_problem ? r.mean_delay.value() : r.power.value();
  EXPECT_LE(constraint, bound);
  // Binding unless the end that optimises the objective meets the bound.
  const std::vector<double> end =
      power_problem ? model.min_stable_frequencies() : model.max_frequencies();
  const double at_end = power_problem ? model.mean_delay_at(end).value()
                                      : model.power_at(end).value();
  if (at_end > bound) {
    EXPECT_GE(constraint, bound * (1.0 - 1e-12));
  } else {
    EXPECT_EQ(r.frequencies, end);
  }
  const FrequencyOptResult lattice =
      power_problem
          ? minimize_power_with_delay_bound(model, units::seconds(bound), 9)
          : minimize_delay_with_power_budget(model, units::watts(bound), 9);
  if (lattice.feasible) {
    const double ours = power_problem ? r.power.value() : r.mean_delay.value();
    const double theirs =
        power_problem ? lattice.power.value() : lattice.mean_delay.value();
    EXPECT_LE(ours, theirs * (1.0 + 1e-12));
  }
}

TEST(DualSolve, SeededAlphaEnvelopeMeetsBoundsAndBeatsTheLattice) {
  // 200 generated models, each tier's power curve rebuilt after generation
  // at an alpha drawn from [1, 3] from a stream of its own, so the
  // generator's draws (and every generated-model test) are untouched.
  // alpha < 2 makes a tier's power concave in f.
  check::ModelGenerator gen(20260518);
  Rng alphas(11);
  for (int m = 0; m < 200; ++m) {
    const ClusterModel model =
        with_alpha(gen.next(), [&alphas](std::size_t) { return alphas.uniform(1.0, 3.0); });
    const double d_fast = model.mean_delay_at(model.max_frequencies()).value();
    expect_on_bound_and_no_worse(model, true, 1.5 * d_fast, "P-E model " + std::to_string(m));
    expect_on_bound_and_no_worse(model, false, halfway_budget(model),
                                 "P-D model " + std::to_string(m));
  }
}

TEST(DualSolve, AlphaAblationOnBothPrograms) {
  // A2's model: the enterprise scenario at load 0.7 with every tier's
  // dynamic exponent set to 1, 2 or 3.
  for (const double alpha : {1.0, 2.0, 3.0}) {
    const ClusterModel model =
        with_alpha(make_enterprise_model(0.7), [alpha](std::size_t) { return alpha; });
    const double d_fast = model.mean_delay_at(model.max_frequencies()).value();
    const double p_min = model.power_at(model.min_stable_frequencies()).value();
    const double p_max = model.power_at(model.max_frequencies()).value();
    const std::string a = "alpha " + std::to_string(alpha);
    for (const double mult : {1.5, 3.0, 10.0})
      expect_on_bound_and_no_worse(model, true, mult * d_fast, a + " P-E x" + std::to_string(mult));
    for (const double frac : {0.25, 0.5, 0.75})
      expect_on_bound_and_no_worse(model, false, p_min + frac * (p_max - p_min),
                                   a + " P-D " + std::to_string(frac));
  }
}

TEST(DualSolve, FreeTiersPayOneMarginalPrice) {
  // The optimality condition of docs/model.md §4, with the derivatives
  // taken by central differences on the model rather than from the
  // solver: at a P-D or P-E optimum every tier strictly inside its range
  // pays the same marginal power per unit of mean delay saved,
  // price_i = dP/df_i / (-dD/df_i); a tier at f_max would pay no more
  // than that price and a tier at its floor no less.
  const ClusterModel base = enterprise_load70();
  for (const double scale : {0.7, 0.925, 1.2}) {
    const ClusterModel model = base.with_rate_scale(scale);
    const std::vector<double> lo = model.min_stable_frequencies(), hi = model.max_frequencies();
    auto power = [&model](const std::vector<double>& f) { return model.power_at(f).value(); };
    auto delay = [&model](const std::vector<double>& f) { return model.mean_delay_at(f).value(); };
    const FrequencyOptResult runs[2] = {
        minimize_power_with_delay_bound(model, model.mean_delay_at(hi) * 3.0),
        minimize_delay_with_power_budget(model, units::watts(halfway_budget(model)))};
    for (const FrequencyOptResult& r : runs) {
      ASSERT_TRUE(r.feasible);
      const std::vector<double>& f = r.frequencies;
      const std::vector<double> dp = numerical_gradient(power, lo, hi, f);
      const std::vector<double> dd = numerical_gradient(delay, lo, hi, f);
      std::vector<double> inside, at_hi, at_lo;
      for (std::size_t i = 0; i < f.size(); ++i) {
        const double price = dp[i] / -dd[i], margin = 1e-4 * (hi[i] - lo[i]);
        (f[i] > hi[i] - margin ? at_hi : f[i] < lo[i] + margin ? at_lo : inside).push_back(price);
      }
      SCOPED_TRACE("scale " + std::to_string(scale) + (&r == runs ? " P-E" : " P-D"));
      ASSERT_FALSE(inside.empty());
      const double price = inside.front();
      for (double p : inside) EXPECT_NEAR(p, price, 1e-7 * price);
      for (double p : at_hi) EXPECT_LE(p, price);
      for (double p : at_lo) EXPECT_GE(p, price);
    }
  }
}

TEST(DualSolve, UnloadedTiersGoToTheLowEndDeterministically) {
  // The gateway of zero_demand_gateway.json carries only zero-demand
  // steps, and the extra tier of the second model is visited by no class:
  // neither tier's power or delay depends on its frequency, so each goes
  // to the low end of its range.
  const ClusterModel gateway =
      load_model(std::string(CPM_DATA_DIR) + "/zero_demand_gateway.json");
  std::vector<Tier> tiers = make_enterprise_model(0.6).tiers();
  tiers.push_back(Tier{"spare", 2});
  const ClusterModel spare(tiers, make_enterprise_model(0.6).classes());
  for (const auto& [model, idle] : {std::pair{&gateway, std::size_t{0}},
                                    std::pair{&spare, std::size_t{3}}}) {
    const double d_fast = model->mean_delay_at(model->max_frequencies()).value();
    const double budget = halfway_budget(*model);
    const auto bounds = class_bounds(*model, 2.0);
    const FrequencyOptResult runs[2][3] = {
        {minimize_power_with_delay_bound(*model, units::seconds(2.0 * d_fast)),
         minimize_delay_with_power_budget(*model, units::watts(budget)),
         minimize_power_with_class_delay_bounds(*model, bounds)},
        {minimize_power_with_delay_bound(*model, units::seconds(2.0 * d_fast)),
         minimize_delay_with_power_budget(*model, units::watts(budget)),
         minimize_power_with_class_delay_bounds(*model, bounds)}};
    for (int p = 0; p < 3; ++p) {
      SCOPED_TRACE("tier " + std::to_string(idle) + " program " + std::to_string(p));
      ASSERT_TRUE(runs[0][p].feasible);
      EXPECT_EQ(runs[0][p].frequencies, runs[1][p].frequencies);
      EXPECT_EQ(runs[0][p].power.value(), runs[1][p].power.value());
      EXPECT_EQ(runs[0][p].evaluations, runs[1][p].evaluations);
      EXPECT_EQ(runs[0][p].frequencies[idle], model->min_frequencies()[idle]);
    }
    EXPECT_LE(runs[0][0].mean_delay.value(), 2.0 * d_fast);
    EXPECT_LE(runs[0][1].power.value(), budget);
    for (std::size_t k = 0; k < bounds.size(); ++k)
      EXPECT_LE(runs[0][2].evaluation.net.e2e_delay[k], bounds[k]);
  }
}

TEST(DualSolve, PrecheckedProgramsStayInfeasible) {
  // The prechecks decide these before any multiplier is tried: P-D below
  // the floor's power, P-E and P-E/each below the f_max delay(s).
  const ClusterModel model = enterprise_load70();
  const Evaluation fast = model.evaluate(model.max_frequencies());
  const double p_floor = model.power_at(model.min_stable_frequencies()).value();
  EXPECT_FALSE(minimize_delay_with_power_budget(model, units::watts(0.999 * p_floor)).feasible);
  EXPECT_FALSE(
      minimize_power_with_delay_bound(model, fast.mean_delay() * 0.999).feasible);
  std::vector<units::Seconds> bounds = class_bounds(model, 3.0);
  bounds[1] = fast.net.e2e_delay[1] * 0.999;
  EXPECT_FALSE(minimize_power_with_class_delay_bounds(model, bounds).feasible);
  // A model unstable even at f_max is infeasible for every program.
  const ClusterModel overloaded = model.with_rate_scale(1.6);
  ASSERT_FALSE(overloaded.evaluate(overloaded.max_frequencies()).stable);
  EXPECT_FALSE(minimize_delay_with_power_budget(overloaded, units::watts(1e6)).feasible);
  EXPECT_FALSE(minimize_power_with_delay_bound(overloaded, units::seconds(1e6)).feasible);
  EXPECT_FALSE(minimize_power_with_class_delay_bounds(
                   overloaded, std::vector<units::Seconds>(3, units::seconds(1e6)))
                   .feasible);
}

}  // namespace
}  // namespace cpm::core
