// Small numeric helpers shared across modules.
#pragma once

#include <cstddef>
#include <vector>

namespace cpm {

/// Linearly spaced grid of `n` points from `lo` to `hi` inclusive (n >= 2).
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Regularised lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
/// a > 0, x >= 0. Series expansion for x < a + 1, continued fraction
/// otherwise (the classic numerically stable split). Accuracy ~1e-12.
double gamma_p(double a, double x);

/// Quantile of the Gamma(shape, scale) distribution: the x with
/// P(shape, x / scale) = p. Wilson-Hilferty initial guess refined by
/// Newton steps on gamma_p. The percentile-delay analysis fits a gamma to
/// (mean, variance) and reads SLA percentiles from this.
double gamma_quantile(double p, double shape, double scale);

}  // namespace cpm
