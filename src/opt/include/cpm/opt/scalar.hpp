// One-dimensional threshold search.
//
// monotone_threshold bisects a monotone predicate for the largest x where
// it still holds; the uniform-frequency baseline uses it to find the
// fastest uniform scaling that stays within a power budget.
#pragma once

#include <functional>

namespace cpm::opt {

/// Finds the largest x in [lo, hi] with pred(x) true, where pred is
/// monotone (true then false). pred(lo) false is an error; returns hi
/// when pred(hi) is true. Used for "tightest feasible constraint"
/// searches.
double monotone_threshold(const std::function<bool(double)>& pred, double lo,
                          double hi, double x_tol = 1e-10);

}  // namespace cpm::opt
