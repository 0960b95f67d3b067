// Integer resource allocation under a monotone feasibility oracle.
//
// The cost-minimisation problem P-C chooses integer server counts n_i per
// tier to minimise total cost subject to per-class SLA bounds. Its key
// structure: adding a server can only help (per-class delays are
// non-increasing in every n_i), so feasibility is a monotone predicate on
// the integer lattice. Both solvers here exploit that:
//
//   greedy_descend        start fully provisioned, repeatedly drop the most
//                         expensive droppable server — fast, near-optimal,
//                         used as the branch-and-bound incumbent;
//   minimize_monotone_cost exact depth-first branch-and-bound with cost
//                         lower bounds and monotone infeasibility pruning.
//
// A point's cost is linear in n for P-C. The TCO program also prices the
// energy of a point's cheapest operating point: it supplies that cost as
// `value`, and its per-unit costs (a server's price plus the energy of its
// idle power) stay a lower bound that the branch-and-bound prunes on.
#pragma once

#include <functional>
#include <vector>

namespace cpm::opt {

struct IntegerProblem {
  std::vector<int> n_min;      ///< per-dimension lower bounds (>= 1 typical)
  std::vector<int> n_max;      ///< per-dimension upper bounds
  std::vector<double> cost;    ///< per-unit cost of each dimension (> 0)
  /// Monotone feasibility oracle: if feasible(n) and m >= n elementwise,
  /// then feasible(m). The solvers rely on this.
  std::function<bool(const std::vector<int>&)> feasible;
  /// Cost of a feasible point, never below its linear cost total_cost(n).
  /// Unset: the linear cost itself.
  std::function<double(const std::vector<int>&)> value;

  void validate() const;  ///< throws cpm::Error on malformed input
  /// The linear cost sum_i cost_i n_i.
  [[nodiscard]] double total_cost(const std::vector<int>& n) const;
};

struct IntegerResult {
  std::vector<int> n;
  double cost = 0.0;        ///< the cost of n (value(n) when feasible and set)
  bool feasible = false;
  long nodes_explored = 0;  ///< oracle invocations
};

/// Greedy: from n_max, repeatedly removes the unit with the highest cost
/// whose removal keeps the oracle satisfied. Terminates at a minimal
/// feasible point (no single unit can be dropped), not necessarily optimal.
IntegerResult greedy_descend(const IntegerProblem& problem);

/// Exact branch-and-bound. Returns feasible=false when even n_max fails
/// the oracle. Worst case enumerates the full box; pruning keeps practical
/// instances (<= ~6 dimensions, ranges of tens) fast. Of points with equal
/// cost it keeps the first it finds.
IntegerResult minimize_monotone_cost(const IntegerProblem& problem);

}  // namespace cpm::opt
