#include "cpm/core/optimizers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "cpm/common/error.hpp"
#include "cpm/common/math.hpp"
#include "cpm/core/preconditions.hpp"
#include "cpm/opt/scalar.hpp"

namespace cpm::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Evaluates one model at the operating points a solver probes, all
// through one workspace, so that after the first probe no evaluation
// allocates. It remembers the last point: the augmented Lagrangian's merit
// function calls the objective and then every constraint at the same
// point, and through the memo they share one evaluation per probe. One
// entry, keyed by the exact bits of the frequency vector: a hit returns
// what evaluate would compute again.
class Evaluator {
 public:
  explicit Evaluator(const ClusterModel& model) : model_(&model) {}
  // The solver's closures hold it by reference.
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  [[nodiscard]] const ClusterModel& model() const { return *model_; }

  // Evaluates `model` from now on, through the same workspace. The
  // evaluator keeps a reference: `model` must outlive the next at().
  void bind(const ClusterModel& model) {
    model_ = &model;
    valid_ = false;
  }

  // The evaluation at `f`. Only `stable` and the accessors are meaningful
  // at an unstable point (see the in-place ClusterModel::evaluate).
  const Evaluation& at(const std::vector<double>& f) {
    if (!valid_ || !same_bits(f, f_)) {
      valid_ = false;  // a throwing evaluate leaves no stale entry
      model_->evaluate(f, ev_, ws_);
      f_ = f;
      valid_ = true;
    }
    return ev_;
  }

 private:
  static bool same_bits(const std::vector<double>& a,
                        const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  }

  const ClusterModel* model_;
  EvaluationWorkspace ws_;
  std::vector<double> f_;
  Evaluation ev_;
  bool valid_ = false;
};

opt::Box frequency_box(const ClusterModel& model) {
  return opt::Box{model.min_frequencies(), model.max_frequencies()};
}

FrequencyOptResult finish(const ClusterModel& model, std::vector<double> f,
                          bool feasible) {
  FrequencyOptResult r;
  r.frequencies = std::move(f);
  r.feasible = feasible;
  r.evaluation = model.evaluate(r.frequencies);
  if (r.evaluation.stable) {
    r.mean_delay = r.evaluation.net.mean_e2e_delay;
    r.power = r.evaluation.energy.cluster_avg_power;
  } else {
    r.mean_delay = units::Seconds::infinity();
    r.power = units::Watts::infinity();
    r.feasible = false;
  }
  return r;
}

// All SLA (mean + percentile) bounds of `model` hold at evaluation `ev`.
bool slas_hold(const ClusterModel& model, const Evaluation& ev) {
  if (!ev.stable) return false;
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const Sla& sla = model.classes()[k].sla;
    if (sla.mean_bounded() && ev.net.e2e_delay[k] > sla.max_mean_e2e_delay)
      return false;
    if (sla.percentile_bounded() &&
        queueing::percentile_e2e_delay(ev.net, k, sla.percentile) >
            sla.max_percentile_e2e_delay)
      return false;
  }
  return true;
}

}  // namespace

FrequencyOptResult minimize_delay_with_power_budget(
    const ClusterModel& model, units::Watts power_budget,
    const FrequencyOptOptions& options) {
  require(power_budget > units::watts(0.0),
          "P-D: power budget must be positive");
  const opt::Box box = frequency_box(model);

  // Normalise the power constraint by the budget so the solver tolerance
  // has a scale-free meaning.
  Evaluator eval(model);
  auto delay = [&eval](const std::vector<double>& f) {
    return eval.at(f).mean_delay().value();
  };
  std::vector<opt::Objective> cons = {[&eval, power_budget](const std::vector<double>& f) {
    return eval.at(f).power() / power_budget - 1.0;
  }};

  opt::AugLagOptions al = options.solver;
  al.violation_tol = std::max(al.violation_tol, options.constraint_scale_tol);

  // Feasibility precheck: cluster power is componentwise increasing in f
  // over the stable region, so the min-stable point attains minimum power.
  const std::vector<double> f_floor = model.min_stable_frequencies();
  if (eval.at(f_floor).power() > power_budget) return finish(model, f_floor, false);

  // Start from max frequencies (best delay) — the solver then trades delay
  // for feasibility.
  const auto r = opt::augmented_lagrangian(delay, cons, box, model.max_frequencies(), al);
  if (!r.feasible) return finish(model, f_floor, true);  // fall back to floor
  return finish(model, r.x, r.feasible);
}

FrequencyOptResult minimize_power_with_delay_bound(const ClusterModel& model,
                                                   units::Seconds max_mean_delay,
                                                   const FrequencyOptOptions& options) {
  require(max_mean_delay > units::seconds(0.0),
          "P-E: delay bound must be positive");
  const opt::Box box = frequency_box(model);

  Evaluator eval(model);
  auto power = [&eval](const std::vector<double>& f) {
    return eval.at(f).power().value();
  };
  std::vector<opt::Objective> cons = {
      [&eval, max_mean_delay](const std::vector<double>& f) {
        return eval.at(f).mean_delay() / max_mean_delay - 1.0;
      }};

  opt::AugLagOptions al = options.solver;
  al.violation_tol = std::max(al.violation_tol, options.constraint_scale_tol);

  // Delay is minimised at f_max; if the bound fails even there, the
  // program is infeasible.
  if (eval.at(model.max_frequencies()).mean_delay() > max_mean_delay)
    return finish(model, model.max_frequencies(), false);

  const auto r =
      opt::augmented_lagrangian(power, cons, box, model.max_frequencies(), al);
  if (!r.feasible) return finish(model, model.max_frequencies(), true);
  return finish(model, r.x, r.feasible);
}

FrequencyOptResult minimize_power_with_class_delay_bounds(
    const ClusterModel& model, const std::vector<units::Seconds>& bounds,
    const FrequencyOptOptions& options) {
  require(bounds.size() == model.num_classes(),
          "P-E/each: one bound per class required");
  for (units::Seconds b : bounds)
    require(b > units::seconds(0.0), "P-E/each: bounds must be positive");
  const opt::Box box = frequency_box(model);

  Evaluator eval(model);
  auto power = [&eval](const std::vector<double>& f) {
    return eval.at(f).power().value();
  };
  std::vector<opt::Objective> cons;
  cons.reserve(bounds.size());
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    if (bounds[k] == units::Seconds::infinity()) continue;
    cons.push_back([&eval, k, bound = bounds[k]](const std::vector<double>& f) {
      const Evaluation& ev = eval.at(f);
      if (!ev.stable) return kInf;
      return ev.net.e2e_delay[k] / bound - 1.0;
    });
  }

  opt::AugLagOptions al = options.solver;
  al.violation_tol = std::max(al.violation_tol, options.constraint_scale_tol);

  // Every per-class delay is minimised at f_max.
  {
    const Evaluation& fast = eval.at(model.max_frequencies());
    if (!fast.stable) return finish(model, model.max_frequencies(), false);
    for (std::size_t k = 0; k < bounds.size(); ++k)
      if (fast.net.e2e_delay[k] > bounds[k])
        return finish(model, model.max_frequencies(), false);
  }

  const auto r =
      opt::augmented_lagrangian(power, cons, box, model.max_frequencies(), al);
  if (!r.feasible) return finish(model, model.max_frequencies(), true);
  return finish(model, r.x, r.feasible);
}

FrequencyOptResult uniform_frequency_baseline(const ClusterModel& model,
                                              units::Watts power_budget) {
  require(power_budget > units::watts(0.0),
          "uniform baseline: power budget must be positive");
  // Uniform scaling is parametrised by t in [0,1] interpolating every tier
  // from its lowest stable frequency to f_max; power is monotone increasing
  // in t over that segment, so the best (delay-minimising) in-budget
  // setting is the largest feasible t.
  const std::vector<double> lo = model.min_stable_frequencies();
  const std::vector<double> hi = model.max_frequencies();
  auto freqs_at = [&](double t) {
    std::vector<double> f(lo.size());
    for (std::size_t i = 0; i < f.size(); ++i) f[i] = lo[i] + t * (hi[i] - lo[i]);
    return f;
  };
  Evaluator eval(model);
  auto within_budget = [&](double t) {
    return eval.at(freqs_at(t)).power() <= power_budget;
  };
  if (!within_budget(0.0)) return finish(model, freqs_at(0.0), false);
  const double t = opt::monotone_threshold(within_budget, 0.0, 1.0, 1e-10);
  return finish(model, freqs_at(t), true);
}

CostOptResult minimize_cost_for_slas(const ClusterModel& model,
                                     const CostOptOptions& options) {
  require(options.max_servers_per_tier >= 1,
          "P-C: max_servers_per_tier must be >= 1");
  const std::size_t n_tiers = model.num_tiers();
  const std::vector<double> freqs = model.max_frequencies();

  // Statically infeasible mean-SLA targets (at or below the no-queueing
  // service-demand floor, lint rule CPM-L003) do not depend on server
  // counts: adding servers removes queueing, never service time. Bail out
  // before the branch-and-bound explores anything. The comparison is the
  // shared open one of sla_mean_target_feasible — a target exactly at the
  // floor needs rho == 0, which a traffic-carrying class never attains.
  // (Percentile bounds are left to the search: the gamma-fit percentile
  // is not bounded below by the mean floor for low percentiles.)
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const Sla& sla = model.classes()[k].sla;
    if (sla.mean_bounded() &&
        !sla_mean_target_feasible(sla.max_mean_e2e_delay,
                                  class_delay_floor(model, k, freqs))) {
      CostOptResult r;
      r.servers.assign(n_tiers, options.max_servers_per_tier);
      return r;  // feasible = false, zero nodes explored
    }
  }

  opt::IntegerProblem problem;
  problem.n_min.assign(n_tiers, 1);
  problem.n_max.assign(n_tiers, options.max_servers_per_tier);
  problem.cost.resize(n_tiers);
  for (std::size_t i = 0; i < n_tiers; ++i)
    problem.cost[i] = model.tiers()[i].server_cost;

  Evaluator eval(model);
  problem.feasible = [&model, &freqs, &eval](const std::vector<int>& n) {
    const ClusterModel sized = model.with_servers(n);
    eval.bind(sized);
    return slas_hold(sized, eval.at(freqs));
  };

  const opt::IntegerResult ir = options.greedy_only
                                    ? opt::greedy_descend(problem)
                                    : opt::minimize_monotone_cost(problem);

  CostOptResult r;
  r.servers = ir.n;
  r.total_cost = ir.cost;
  r.feasible = ir.feasible;
  r.nodes_explored = ir.nodes_explored;
  if (ir.feasible) r.evaluation = model.with_servers(ir.n).evaluate(freqs);
  return r;
}

std::vector<std::vector<double>> frequency_grids(const ClusterModel& model,
                                                 int levels) {
  require(levels >= 2, "frequency_grids: need at least 2 levels");
  std::vector<std::vector<double>> grids;
  grids.reserve(model.num_tiers());
  const auto lo = model.min_frequencies();
  const auto hi = model.max_frequencies();
  for (std::size_t i = 0; i < model.num_tiers(); ++i)
    grids.push_back(linspace(lo[i], hi[i], static_cast<std::size_t>(levels)));
  return grids;
}

namespace {

// Exhaustive lattice search shared by the discrete programs and the TCO
// inner solve, over the model `eval` is bound to. `objective` is minimised
// over stable grid points satisfying `admissible`.
FrequencyOptResult lattice_search(
    Evaluator& eval, const std::vector<std::vector<double>>& grids,
    const std::function<double(const Evaluation&)>& objective,
    const std::function<bool(const Evaluation&)>& admissible) {
  const ClusterModel& model = eval.model();
  const std::size_t n = grids.size();

  // Per-tier stability floor: tier i is stable iff f_i exceeds its own
  // critical frequency, independent of the other tiers — prune below it.
  const std::vector<double> floor = model.min_stable_frequencies();

  std::vector<std::size_t> idx(n, 0);
  std::vector<double> f(n);
  FrequencyOptResult best;
  double best_value = kInf;

  for (;;) {
    bool viable = true;
    for (std::size_t i = 0; i < n; ++i) {
      f[i] = grids[i][idx[i]];
      if (f[i] < floor[i]) viable = false;  // tier saturated at this level
    }
    if (viable) {
      const Evaluation& ev = eval.at(f);
      if (ev.stable && admissible(ev)) {
        const double value = objective(ev);
        if (value < best_value) {
          best_value = value;
          best.frequencies = f;
          best.evaluation = ev;
          best.feasible = true;
        }
      }
    }
    // Odometer increment.
    std::size_t d = 0;
    while (d < n && ++idx[d] == grids[d].size()) {
      idx[d] = 0;
      ++d;
    }
    if (d == n) break;
  }

  if (best.feasible) {
    best.mean_delay = best.evaluation.net.mean_e2e_delay;
    best.power = best.evaluation.energy.cluster_avg_power;
  } else {
    best.frequencies = model.max_frequencies();
    best.mean_delay = units::Seconds::infinity();
    best.power = units::Watts::infinity();
  }
  return best;
}

}  // namespace

TcoResult minimize_total_cost_of_ownership(const ClusterModel& model,
                                           const TcoOptions& options) {
  require(options.energy_price_per_kwh >= 0.0, "TCO: negative energy price");
  require(options.billing_hours > 0.0, "TCO: billing hours must be positive");
  require(options.max_servers_per_tier >= 1, "TCO: max servers must be >= 1");
  require(options.levels >= 2, "TCO: need >= 2 frequency levels");

  const std::size_t n_tiers = model.num_tiers();
  const double kwh_factor = options.energy_price_per_kwh * options.billing_hours /
                            1000.0;  // watts -> money

  TcoResult best;
  best.total_cost = std::numeric_limits<double>::infinity();
  long nodes = 0;

  // Unavoidable opex lower bound for an allocation: its idle power.
  auto idle_opex = [&](const std::vector<int>& n) {
    double idle = 0.0;
    for (std::size_t i = 0; i < n_tiers; ++i)
      idle += model.tiers()[i].power.idle_power().value() * n[i];
    return idle * kwh_factor;
  };
  auto capex = [&](const std::vector<int>& n) {
    double c = 0.0;
    for (std::size_t i = 0; i < n_tiers; ++i)
      c += model.tiers()[i].server_cost * n[i];
    return c;
  };

  // Odometer enumeration of server vectors with cost pruning; feasibility
  // screened cheaply at f_max before paying for the inner lattice solve.
  Evaluator eval(model);
  std::vector<int> n(n_tiers, 1);
  for (;;) {
    ++nodes;
    const double floor_cost = capex(n) + idle_opex(n);
    if (floor_cost < best.total_cost) {
      const ClusterModel sized = model.with_servers(n);
      eval.bind(sized);
      if (slas_hold(sized, eval.at(sized.max_frequencies()))) {
        // Inner problem: cheapest power meeting the SLAs, over the grid.
        // The grid's top level is f_max, so the search finds a point.
        const FrequencyOptResult inner = lattice_search(
            eval, frequency_grids(sized, options.levels),
            [](const Evaluation& ev) { return ev.energy.cluster_avg_power.value(); },
            [&sized](const Evaluation& ev) { return slas_hold(sized, ev); });
        const double best_power = inner.power.value();
        const double total = capex(n) + best_power * kwh_factor;
        if (total < best.total_cost) {
          best.servers = n;
          best.frequencies = inner.frequencies;
          best.capex = capex(n);
          best.opex = best_power * kwh_factor;
          best.total_cost = total;
          best.power = inner.power;
          best.feasible = true;
          best.evaluation = inner.evaluation;
        }
      }
    }
    // Advance the odometer.
    std::size_t d = 0;
    while (d < n_tiers && ++n[d] > options.max_servers_per_tier) {
      n[d] = 1;
      ++d;
    }
    if (d == n_tiers) break;
  }

  best.nodes_explored = nodes;
  if (!best.feasible) best.total_cost = 0.0;
  return best;
}

FrequencyOptResult minimize_power_with_delay_bound_discrete(
    const ClusterModel& model, units::Seconds max_mean_delay, int levels) {
  require(max_mean_delay > units::seconds(0.0),
          "P-E discrete: delay bound must be positive");
  Evaluator eval(model);
  return lattice_search(
      eval, frequency_grids(model, levels),
      [](const Evaluation& ev) { return ev.energy.cluster_avg_power.value(); },
      [max_mean_delay](const Evaluation& ev) {
        return ev.net.mean_e2e_delay <= max_mean_delay;
      });
}

FrequencyOptResult minimize_power_with_class_delay_bounds_discrete(
    const ClusterModel& model, const std::vector<units::Seconds>& bounds,
    int levels) {
  require(bounds.size() == model.num_classes(),
          "P-E discrete: one delay bound per class required");
  for (units::Seconds b : bounds)
    require(b > units::seconds(0.0),
            "P-E discrete: delay bounds must be positive");
  Evaluator eval(model);
  return lattice_search(
      eval, frequency_grids(model, levels),
      [](const Evaluation& ev) { return ev.energy.cluster_avg_power.value(); },
      [&bounds](const Evaluation& ev) {
        for (std::size_t k = 0; k < bounds.size(); ++k)
          if (ev.net.e2e_delay[k] > bounds[k]) return false;
        return true;
      });
}

FrequencyOptResult minimize_delay_with_power_budget_discrete(
    const ClusterModel& model, units::Watts power_budget, int levels) {
  require(power_budget > units::watts(0.0),
          "P-D discrete: power budget must be positive");
  Evaluator eval(model);
  return lattice_search(
      eval, frequency_grids(model, levels),
      [](const Evaluation& ev) { return ev.net.mean_e2e_delay.value(); },
      [power_budget](const Evaluation& ev) {
        return ev.energy.cluster_avg_power <= power_budget;
      });
}

}  // namespace cpm::core
