#include "cpm/opt/scalar.hpp"

#include "cpm/common/error.hpp"
#include "cpm/opt/types.hpp"

namespace cpm::opt {

void Box::validate() const {
  require(!lo.empty() && lo.size() == hi.size(), "Box: lo/hi size mismatch");
  for (std::size_t i = 0; i < lo.size(); ++i)
    require(lo[i] <= hi[i], "Box: lo > hi on some axis");
}

std::vector<double> Box::project(std::vector<double> x) const {
  require(x.size() == lo.size(), "Box::project: dim mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < lo[i]) x[i] = lo[i];
    if (x[i] > hi[i]) x[i] = hi[i];
  }
  return x;
}

std::vector<double> Box::center() const {
  std::vector<double> c(lo.size());
  for (std::size_t i = 0; i < lo.size(); ++i) c[i] = 0.5 * (lo[i] + hi[i]);
  return c;
}

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
