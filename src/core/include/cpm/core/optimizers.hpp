// The paper's three optimisation problems over a ClusterModel.
//
//   P-D  minimize_delay_with_power_budget
//        min_f  mean E2E delay   s.t.  cluster power <= budget
//
//   P-E  minimize_power_with_delay_bound        (aggregate bound)
//        minimize_power_with_class_delay_bounds (one bound per class)
//        min_f  cluster power    s.t.  delay bound(s)
//
//   P-C  minimize_cost_for_slas
//        min_n  sum_i cost_i n_i  s.t.  per-class SLA mean-delay bounds,
//        n_i integer servers per tier (frequencies held fixed).
//
// The continuous programs run the augmented-Lagrangian solver over the
// DVFS box; the integer program runs monotone branch-and-bound (adding a
// server can only reduce delays). Baseline policies the paper compares
// against (uniform frequency, no DVFS) are provided alongside.
#pragma once

#include <vector>

#include "cpm/core/cluster_model.hpp"
#include "cpm/opt/constrained.hpp"
#include "cpm/opt/integer.hpp"

namespace cpm::core {

/// Result of a continuous (frequency) optimisation.
struct FrequencyOptResult {
  std::vector<double> frequencies;
  /// Traffic-weighted mean E2E delay at the optimum.
  units::Seconds mean_delay = units::seconds(0.0);
  /// Cluster average power at the optimum.
  units::Watts power = units::watts(0.0);
  bool feasible = false;
  Evaluation evaluation;       ///< full analytic metrics at the optimum
};

struct FrequencyOptOptions {
  opt::AugLagOptions solver;
  /// Relative feasibility slack applied to the constraint scale (the raw
  /// solver tolerance is absolute; constraints here are normalised).
  double constraint_scale_tol = 1e-4;
};

/// P-D: minimise mean E2E delay subject to cluster power <= power_budget.
/// feasible=false when even the all-min-frequency point (lowest possible
/// power) exceeds the budget or no stable point fits it.
FrequencyOptResult minimize_delay_with_power_budget(
    const ClusterModel& model, units::Watts power_budget,
    const FrequencyOptOptions& options = {});

/// P-E (all classes): minimise cluster power subject to the traffic-
/// weighted mean E2E delay <= max_mean_delay.
FrequencyOptResult minimize_power_with_delay_bound(
    const ClusterModel& model, units::Seconds max_mean_delay,
    const FrequencyOptOptions& options = {});

/// P-E (each class): minimise cluster power subject to per-class mean E2E
/// delay bounds (bounds.size() == num_classes; +infinity = unconstrained).
FrequencyOptResult minimize_power_with_class_delay_bounds(
    const ClusterModel& model, const std::vector<units::Seconds>& bounds,
    const FrequencyOptOptions& options = {});

/// Baseline for P-D: all tiers run at one common frequency, the highest
/// uniform setting that fits the power budget.
FrequencyOptResult uniform_frequency_baseline(const ClusterModel& model,
                                              units::Watts power_budget);

/// Result of the integer provisioning optimisation.
struct CostOptResult {
  std::vector<int> servers;
  double total_cost = 0.0;
  bool feasible = false;
  long nodes_explored = 0;
  Evaluation evaluation;  ///< analytic metrics at the chosen allocation
};

struct CostOptOptions {
  int max_servers_per_tier = 24;
  /// Use the greedy heuristic instead of exact branch-and-bound.
  bool greedy_only = false;
};

/// P-C: cheapest integer server allocation meeting every class's SLA
/// (classes with an unbounded SLA impose no constraint), sized with every
/// tier at f_max. feasible=false when even max_servers_per_tier everywhere
/// cannot meet the SLAs.
CostOptResult minimize_cost_for_slas(const ClusterModel& model,
                                     const CostOptOptions& options = {});

// ---- Joint provisioning + DVFS: total cost of ownership --------------------
//
// P-C prices only hardware; a provider also pays for energy. The TCO
// program chooses server counts AND operating frequencies together:
//
//   min_{n, f}  sum_i capex_i n_i + energy_price * P(n, f) * billing_hours
//   s.t.        every class SLA (mean / percentile delay bounds)
//
// Structure exploited: for fixed n the inner problem is exactly P-E with
// per-class bounds (solved on a discrete frequency lattice, cheap), and
// SLA feasibility is monotone in n — so an outer branch-and-bound over n
// works with the inner solve as the oracle. The interesting economics:
// as energy_price rises the optimum buys MORE servers and clocks them
// LOWER (experiment E10 shows the crossover).

struct TcoOptions {
  /// Money per kWh. Currency is not a modelled dimension. // conv-ok: UNIT-2
  double energy_price_per_kwh = 0.10;
  double billing_hours = 3.0 * 365.0 * 24.0;  ///< amortisation horizon (3y)
  int max_servers_per_tier = 12;
  int levels = 7;  ///< frequency-lattice resolution of the inner solve
};

struct TcoResult {
  std::vector<int> servers;
  std::vector<double> frequencies;
  double capex = 0.0;          ///< hardware cost
  double opex = 0.0;           ///< energy cost over billing_hours
  double total_cost = 0.0;
  units::Watts power = units::watts(0.0);  ///< cluster power at the optimum
  bool feasible = false;
  long nodes_explored = 0;
  Evaluation evaluation;
};

/// Solves the TCO program. Classes without SLA bounds impose none.
TcoResult minimize_total_cost_of_ownership(const ClusterModel& model,
                                           const TcoOptions& options = {});

// ---- Discrete DVFS (P-state ladders) --------------------------------------
//
// Real processors expose a small set of P-states, not a continuum. These
// variants solve the same programs over a per-tier frequency grid of
// `levels` equispaced points spanning [f_min, f_max], by exhaustive lattice
// search with per-tier stability pruning (grids are small: levels^tiers
// combinations, and tier stability depends only on that tier's own
// frequency). Ablation A5 measures the continuous-vs-discrete gap.

/// Equispaced per-tier grids over each tier's DVFS range.
std::vector<std::vector<double>> frequency_grids(const ClusterModel& model,
                                                 int levels);

/// P-E over the discrete grid: minimise power s.t. mean E2E delay bound.
FrequencyOptResult minimize_power_with_delay_bound_discrete(
    const ClusterModel& model, units::Seconds max_mean_delay, int levels);

/// P-E (each class) over the discrete grid: minimise power s.t. per-class
/// mean E2E delay bounds (bounds.size() == num_classes; +infinity =
/// unconstrained). The online controller's re-optimisation step: real
/// actuators expose P-states, so the closed loop always picks from the
/// lattice rather than the continuum.
FrequencyOptResult minimize_power_with_class_delay_bounds_discrete(
    const ClusterModel& model, const std::vector<units::Seconds>& bounds,
    int levels);

/// P-D over the discrete grid: minimise delay s.t. power budget.
FrequencyOptResult minimize_delay_with_power_budget_discrete(
    const ClusterModel& model, units::Watts power_budget, int levels);

}  // namespace cpm::core
