#include "cpm/opt/constrained.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cpm/common/error.hpp"
#include "cpm/opt/gradient.hpp"
#include "cpm/opt/nelder_mead.hpp"

namespace cpm::opt {

constexpr int kMaxOuter = 40;
constexpr double kMu0 = 10.0;          // initial penalty weight
constexpr double kMuGrowth = 4.0;      // growth factor when violation stalls
constexpr double kStallFactor = 0.25;  // violation must shrink by this per round
constexpr int kNelderMeadStarts = 4;   // multistarts of the inner Nelder–Mead

ConstrainedResult augmented_lagrangian(const Objective& f,
                                       const std::vector<Objective>& inequalities,
                                       const Box& box, const std::vector<double>& x0,
                                       const AugLagOptions& options) {
  box.validate();
  require(x0.size() == box.dim(), "augmented_lagrangian: x0 dimension mismatch");

  const std::size_t m = inequalities.size();
  std::vector<double> lambda(m, 0.0);
  double mu = kMu0;

  auto violations = [&](const std::vector<double>& x) {
    std::vector<double> g(m);
    for (std::size_t j = 0; j < m; ++j) g[j] = inequalities[j](x);
    return g;
  };
  auto max_violation = [&](const std::vector<double>& g) {
    double worst = 0.0;
    for (double gj : g) worst = std::max(worst, gj);
    return worst;
  };

  // Rockafellar's augmented Lagrangian for g(x) <= 0.
  auto augmented = [&](const std::vector<double>& x) {
    const double fx = f(x);
    if (!std::isfinite(fx)) return fx;
    double penalty = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double gj = inequalities[j](x);
      if (!std::isfinite(gj)) return std::numeric_limits<double>::infinity();
      const double t = std::max(0.0, lambda[j] + mu * gj);
      penalty += (t * t - lambda[j] * lambda[j]) / (2.0 * mu);
    }
    return fx + penalty;
  };

  std::vector<double> x = box.project(x0);
  double prev_violation = std::numeric_limits<double>::infinity();

  ConstrainedResult result;
  for (result.outer_iterations = 0; result.outer_iterations < kMaxOuter;
       ++result.outer_iterations) {
    VectorResult inner;
    if (options.inner == InnerSolver::kNelderMead) {
      // Seed one run at the incumbent, then multistart for global reach.
      VectorResult seeded = nelder_mead(augmented, box, x);
      inner = multistart_nelder_mead(
          augmented, box, kNelderMeadStarts,
          /*seed=*/1234u + static_cast<unsigned>(result.outer_iterations));
      if (seeded.value < inner.value) inner = std::move(seeded);
    } else {
      inner = projected_gradient(augmented, box, x);
    }
    x = std::move(inner.x);

    const std::vector<double> g = violations(x);
    const double viol = max_violation(g);

    // Multiplier update.
    for (std::size_t j = 0; j < m; ++j)
      lambda[j] = std::max(0.0, lambda[j] + mu * g[j]);

    if (viol <= options.violation_tol) {
      result.feasible = true;
      result.outer_iterations += 1;
      // One more multiplier-refined solve tends to polish the optimum, but
      // feasible-and-converged is the stopping contract.
      break;
    }
    if (viol > kStallFactor * prev_violation) mu *= kMuGrowth;
    prev_violation = viol;
  }

  result.x = x;
  result.value = f(x);
  result.max_violation = max_violation(violations(x));
  result.feasible = result.max_violation <= options.violation_tol;
  result.multipliers = std::move(lambda);
  return result;
}

}  // namespace cpm::opt
