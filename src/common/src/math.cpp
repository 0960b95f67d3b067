#include "cpm/common/math.hpp"

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/common/stats.hpp"  // normal_quantile

namespace cpm {

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  require(n >= 2, "linspace: need at least 2 points");
  std::vector<double> out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) out[i] = lo + step * static_cast<double>(i);
  out.back() = hi;
  return out;
}

namespace {

// Series representation of P(a, x), converges quickly for x < a + 1.
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < 500; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Lentz continued fraction for Q(a, x) = 1 - P(a, x), for x >= a + 1.
double gamma_q_cf(double a, double x) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

double gamma_p(double a, double x) {
  require(a > 0.0, "gamma_p: shape must be positive");
  require(x >= 0.0, "gamma_p: x must be >= 0");
  if (x == 0.0) return 0.0;
  return x < a + 1.0 ? gamma_p_series(a, x) : 1.0 - gamma_q_cf(a, x);
}

double gamma_quantile(double p, double shape, double scale) {
  require(p > 0.0 && p < 1.0, "gamma_quantile: p in (0,1)");
  require(shape > 0.0 && scale > 0.0, "gamma_quantile: positive parameters");

  // Wilson-Hilferty seed: gamma quantile from the normal one.
  const double zn = normal_quantile(p);
  const double k = shape;
  double x = k * std::pow(1.0 - 1.0 / (9.0 * k) + zn / (3.0 * std::sqrt(k)), 3.0);
  if (!(x > 0.0)) x = k * 1e-8;

  // Newton refinement on F(x) = gamma_p(k, x) - p; F'(x) is the pdf.
  for (int it = 0; it < 60; ++it) {
    const double f = gamma_p(k, x) - p;
    const double logpdf = (k - 1.0) * std::log(x) - x - std::lgamma(k);
    const double pdf = std::exp(logpdf);
    if (pdf <= 0.0) break;
    double step = f / pdf;
    // Damp steps that would leave the support.
    if (x - step <= 0.0) step = x / 2.0;
    x -= step;
    if (std::abs(step) < 1e-12 * (1.0 + x)) break;
  }
  return x * scale;
}

}  // namespace cpm
