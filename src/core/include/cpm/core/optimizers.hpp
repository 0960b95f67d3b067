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
//   TCO  minimize_total_cost_of_ownership
//        P-C's servers and P-E's frequencies chosen together, pricing
//        hardware and energy.
//
// The continuous programs separate by tier: power and every delay are sums
// of per-tier terms, each a function of that tier's frequency alone. They
// are solved on the dual: for multipliers nu every tier minimises
// P_i + sum_c nu_c D_ci over its own stable DVFS range (all tiers in
// lockstep, one evaluation serving every tier), and a safeguarded outer
// iteration moves nu until the constraint sits on its bound, which the
// answer meets with no overshoot (docs/model.md §4). Given `levels`, the
// same three calls search a P-state lattice instead. P-C and TCO share one
// monotone branch-and-bound over the server counts (adding a server can
// only reduce delays). Every solve keeps its tier units in one TierTable,
// so it analyses each tier once per distinct (servers, frequency) and
// assembles each point it probes from them. Baseline policies the paper compares against
// (uniform frequency, no DVFS) are provided alongside.
#pragma once

#include <vector>

#include "cpm/core/cluster_model.hpp"
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
  /// Work counts for tests and benchmarks, in no output document:
  /// `evaluations` is every operating point the solve evaluated, the
  /// final one included, and `station_analyses` the tier units it
  /// computed, one per distinct (tier, servers, frequency) it probed.
  long evaluations = 0;
  long station_analyses = 0;
};

struct FrequencyOptOptions {
  /// Relative constraint slack a caller may grant an optimum. The
  /// continuous programs land on or below their bounds, so they need none.
  static constexpr double constraint_scale_tol = 1e-4;
};

// Each frequency program takes `levels`: 0 solves it over the continuous
// DVFS ranges; 2 or more searches the P-state lattice
// frequency_grids(model, levels) exhaustively, skipping each tier's levels
// below its stability floor (a tier's stability depends on its own
// frequency alone), and returns the lattice point with the best objective
// that meets the constraint, or f_max with feasible=false. Any other
// value throws. Real processors expose a few P-states, not a continuum:
// the online controller plans on the lattice, and ablation A5 measures
// the continuous-vs-discrete gap.

/// P-D: minimise mean E2E delay subject to cluster power <= power_budget.
/// feasible=false when even the min-stable point (lowest possible power)
/// exceeds the budget or is unstable.
FrequencyOptResult minimize_delay_with_power_budget(const ClusterModel& model,
                                                   units::Watts power_budget,
                                                   int levels = 0);

/// P-E (all classes): minimise cluster power subject to the traffic-
/// weighted mean E2E delay <= max_mean_delay. feasible=false when even
/// f_max misses the bound.
FrequencyOptResult minimize_power_with_delay_bound(const ClusterModel& model,
                                                   units::Seconds max_mean_delay,
                                                   int levels = 0);

/// P-E (each class): minimise cluster power subject to per-class mean E2E
/// delay bounds (bounds.size() == num_classes; +infinity = unconstrained).
/// feasible=false when f_max misses some class's bound. No bound is
/// exceeded; on the continuum the tightest binding class lands on its
/// bound, and other binding classes end at most 1e-10 relative below
/// theirs when the multiplier iteration converges.
FrequencyOptResult minimize_power_with_class_delay_bounds(
    const ClusterModel& model, const std::vector<units::Seconds>& bounds,
    int levels = 0);

/// Equispaced per-tier grids of `levels` points over each tier's DVFS
/// range [f_min, f_max]; levels >= 2.
std::vector<std::vector<double>> frequency_grids(const ClusterModel& model,
                                                 int levels);

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
  /// Work counts, as FrequencyOptResult's: the oracle's probes and the
  /// final evaluation, and the tier units they read.
  long evaluations = 0;
  long station_analyses = 0;
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
// Structure exploited: for fixed n the inner problem is P-E with every
// SLA as a bound, searched on the P-state lattice; SLA feasibility is
// monotone in n. So the search over n is P-C's branch-and-bound with P-C's
// oracle (every SLA holds at f_max), a server's price plus the energy of
// its idle power as the per-server lower bound, and capex plus the opex
// of the inner problem's answer as the cost of a point. The interesting
// economics: as energy_price rises the optimum buys MORE servers and
// clocks them LOWER (experiment E10 shows the crossover).

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
  long nodes_explored = 0;  ///< feasibility probes, as CostOptResult's
  Evaluation evaluation;
  /// Work counts, as FrequencyOptResult's, over the oracle and every
  /// leaf's lattice.
  long evaluations = 0;
  long station_analyses = 0;
};

/// Solves the TCO program. Classes without SLA bounds impose none.
TcoResult minimize_total_cost_of_ownership(const ClusterModel& model,
                                           const TcoOptions& options = {});

}  // namespace cpm::core
