#include "cpm/opt/scalar.hpp"

#include "cpm/common/error.hpp"

namespace cpm::opt {

double monotone_threshold(const std::function<bool(double)>& pred, double lo,
                          double hi, double x_tol) {
  require(lo <= hi, "monotone_threshold: lo > hi");
  require(pred(lo), "monotone_threshold: pred(lo) must hold");
  if (pred(hi)) return hi;
  double a = lo, b = hi;  // invariant: pred(a) true, pred(b) false
  while (b - a > x_tol) {
    const double m = 0.5 * (a + b);
    if (pred(m)) a = m; else b = m;
  }
  return a;
}

}  // namespace cpm::opt
