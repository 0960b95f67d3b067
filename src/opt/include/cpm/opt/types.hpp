// Shared types for the optimisation module.
//
// The module exists because the paper's programs (P-D, P-E, P-C) need a
// constrained nonlinear solver and an integer allocator, and the repro
// environment has no external NLP library. Everything is implemented from
// first principles and unit-tested against problems with known optima.
#pragma once

#include <functional>
#include <vector>

namespace cpm::opt {

/// Objective / constraint callable over a decision vector.
using Objective = std::function<double(const std::vector<double>&)>;

/// Axis-aligned feasible box lo <= x <= hi.
struct Box {
  std::vector<double> lo;
  std::vector<double> hi;

  [[nodiscard]] std::size_t dim() const { return lo.size(); }
  /// Throws cpm::Error unless lo/hi sizes match and lo <= hi elementwise.
  void validate() const;
  /// Projects x onto the box (elementwise clamp).
  [[nodiscard]] std::vector<double> project(std::vector<double> x) const;
  /// Box centre, used as a default start point.
  [[nodiscard]] std::vector<double> center() const;
};

/// Result of a vector minimisation.
struct VectorResult {
  std::vector<double> x;
  double value = 0.0;
  int iterations = 0;
  bool converged = false;
};

}  // namespace cpm::opt
