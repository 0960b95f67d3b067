// Augmented-Lagrangian solver for inequality-constrained minimisation.
//
//   minimise f(x)  subject to  g_j(x) <= 0,  x in box
//
// This is the solver behind P-D (delay s.t. power budget) and P-E (power
// s.t. delay bounds). The classic augmented Lagrangian for inequalities
// (Rockafellar) is minimised over the box by an inner derivative-free or
// gradient solver; multipliers are updated by the standard rule and the
// penalty weight grows when feasibility stalls.
//
// Objectives/constraints may return +infinity outside their domain (e.g.
// delay of an unstable allocation); the default Nelder–Mead inner solver
// handles that gracefully, which is why it is the default.
//
// The schedule is fixed (at most 40 rounds; penalty weight 10, grown 4x
// when a round cuts the violation by less than 4x; Nelder–Mead from the
// incumbent plus 4 quasi-random starts): callers pick the inner solver and
// the feasibility tolerance.
#pragma once

#include "cpm/opt/types.hpp"

namespace cpm::opt {

enum class InnerSolver { kNelderMead, kProjectedGradient };

struct AugLagOptions {
  double violation_tol = 1e-7;  ///< feasibility tolerance on max_j g_j(x)
  InnerSolver inner = InnerSolver::kNelderMead;
};

struct ConstrainedResult {
  std::vector<double> x;
  double value = 0.0;               ///< f at the returned point
  double max_violation = 0.0;       ///< max_j g_j(x), <= tol when feasible
  std::vector<double> multipliers;  ///< final Lagrange multiplier estimates
  int outer_iterations = 0;
  bool feasible = false;
};

/// Solves the program above. `x0` seeds the first inner solve; pass the
/// box centre when nothing better is known.
ConstrainedResult augmented_lagrangian(const Objective& f,
                                       const std::vector<Objective>& inequalities,
                                       const Box& box, const std::vector<double>& x0,
                                       const AugLagOptions& options = {});

}  // namespace cpm::opt
