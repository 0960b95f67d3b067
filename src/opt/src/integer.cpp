#include "cpm/opt/integer.hpp"

#include <limits>

#include "cpm/common/error.hpp"

namespace cpm::opt {

void IntegerProblem::validate() const {
  require(!n_min.empty(), "IntegerProblem: empty problem");
  require(n_min.size() == n_max.size() && n_min.size() == cost.size(),
          "IntegerProblem: size mismatch");
  require(static_cast<bool>(feasible), "IntegerProblem: missing oracle");
  for (std::size_t i = 0; i < n_min.size(); ++i) {
    require(n_min[i] >= 0 && n_min[i] <= n_max[i], "IntegerProblem: bad bounds");
    require(cost[i] > 0.0, "IntegerProblem: costs must be positive");
  }
}

double IntegerProblem::total_cost(const std::vector<int>& n) const {
  double total = 0.0;
  for (std::size_t i = 0; i < n.size(); ++i) total += cost[i] * n[i];
  return total;
}

IntegerResult greedy_descend(const IntegerProblem& problem) {
  problem.validate();
  IntegerResult r;
  r.n = problem.n_max;
  r.nodes_explored = 1;
  if (!problem.feasible(r.n)) {
    r.cost = problem.total_cost(r.n);
    return r;  // feasible stays false
  }
  r.feasible = true;

  // Drop the single most expensive droppable unit until stuck.
  for (;;) {
    std::size_t best_dim = r.n.size();
    double best_saving = 0.0;
    for (std::size_t i = 0; i < r.n.size(); ++i) {
      if (r.n[i] <= problem.n_min[i]) continue;
      if (problem.cost[i] <= best_saving) continue;
      r.n[i] -= 1;
      ++r.nodes_explored;
      const bool ok = problem.feasible(r.n);
      r.n[i] += 1;
      if (ok) {
        best_saving = problem.cost[i];
        best_dim = i;
      }
    }
    if (best_dim == r.n.size()) break;
    r.n[best_dim] -= 1;
  }
  r.cost = problem.value ? problem.value(r.n) : problem.total_cost(r.n);
  return r;
}

namespace {

struct BnbState {
  const IntegerProblem* problem;
  std::vector<int> current;
  std::vector<int> best;
  double best_cost;
  long nodes;

  // Minimum possible cost of dimensions >= dim.
  double tail_min_cost(std::size_t dim) const {
    double c = 0.0;
    for (std::size_t i = dim; i < problem->n_min.size(); ++i)
      c += problem->cost[i] * problem->n_min[i];
    return c;
  }

  void dfs(std::size_t dim, double prefix_cost) {
    const std::size_t d = problem->n_min.size();
    if (prefix_cost + tail_min_cost(dim) >= best_cost) return;  // cost bound
    if (dim == d) {
      ++nodes;
      if (!problem->feasible(current)) return;
      const double value = problem->value ? problem->value(current) : prefix_cost;
      if (value < best_cost) {
        best = current;
        best_cost = value;
      }
      return;
    }
    // Monotone pruning: if maxing out the remaining dimensions is still
    // infeasible, no completion of this prefix works.
    for (std::size_t i = dim; i < d; ++i) current[i] = problem->n_max[i];
    ++nodes;
    const bool any_hope = problem->feasible(current);
    for (std::size_t i = dim; i < d; ++i) current[i] = problem->n_min[i];
    if (!any_hope) return;

    // Try cheaper assignments first so the incumbent tightens early.
    for (int v = problem->n_min[dim]; v <= problem->n_max[dim]; ++v) {
      current[dim] = v;
      dfs(dim + 1, prefix_cost + problem->cost[dim] * v);
    }
    current[dim] = problem->n_min[dim];
  }
};

}  // namespace

IntegerResult minimize_monotone_cost(const IntegerProblem& problem) {
  problem.validate();

  // Greedy incumbent first: a good upper bound makes the cost pruning bite.
  IntegerResult greedy = greedy_descend(problem);
  if (!greedy.feasible) return greedy;  // even n_max fails -> infeasible

  BnbState state;
  state.problem = &problem;
  state.current = problem.n_min;
  state.best = greedy.n;
  state.best_cost = greedy.cost;
  state.nodes = greedy.nodes_explored;
  state.dfs(0, 0.0);

  IntegerResult r;
  r.n = std::move(state.best);
  r.cost = state.best_cost;
  r.feasible = true;
  r.nodes_explored = state.nodes;
  return r;
}

}  // namespace cpm::opt
