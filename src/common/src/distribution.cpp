#include "cpm/common/distribution.hpp"

#include <cmath>
#include <limits>

#include "cpm/common/error.hpp"

namespace cpm {

// Parameter-slot conventions (a_, b_, c_) per family:
//   deterministic : a_ = value
//   exponential   : a_ = rate
//   erlang/gamma  : a_ = shape k, b_ = per-stage/overall rate
//   hyper_exp2    : a_ = p (branch prob), b_ = rate1, c_ = rate2
//   uniform       : a_ = lo, b_ = hi
//   lognormal     : a_ = mu, b_ = sigma
//   pareto        : a_ = shape, b_ = scale x_m

Distribution Distribution::deterministic(double value) {
  require(value >= 0.0, "deterministic: value must be >= 0");
  return {DistKind::kDeterministic, value, value * value, value, 0, 0};
}

Distribution Distribution::exponential(double mean) {
  require(mean > 0.0, "exponential: mean must be > 0");
  return {DistKind::kExponential, mean, 2.0 * mean * mean, 1.0 / mean, 0, 0};
}

Distribution Distribution::erlang(int k, double mean) {
  require(k >= 1, "erlang: k must be >= 1");
  require(mean > 0.0, "erlang: mean must be > 0");
  const double kk = static_cast<double>(k);
  // Var = mean^2 / k, so E[X^2] = mean^2 (1 + 1/k).
  const double m2 = mean * mean * (1.0 + 1.0 / kk);
  return {DistKind::kErlang, mean, m2, kk, kk / mean, 0};
}

Distribution Distribution::gamma(double shape, double mean) {
  require(shape > 0.0, "gamma: shape must be > 0");
  require(mean > 0.0, "gamma: mean must be > 0");
  const double m2 = mean * mean * (1.0 + 1.0 / shape);
  return {DistKind::kGamma, mean, m2, shape, shape / mean, 0};
}

Distribution Distribution::hyper_exp2(double mean, double scv) {
  require(mean > 0.0, "hyper_exp2: mean must be > 0");
  require(scv > 1.0, "hyper_exp2: scv must be > 1 (use erlang/exponential otherwise)");
  // Balanced-means parametrisation (Whitt): each branch contributes half
  // the mean; p absorbs all the variability.
  const double p = 0.5 * (1.0 + std::sqrt((scv - 1.0) / (scv + 1.0)));
  const double r1 = 2.0 * p / mean;
  const double r2 = 2.0 * (1.0 - p) / mean;
  const double m2 = 2.0 * p / (r1 * r1) + 2.0 * (1.0 - p) / (r2 * r2);
  return {DistKind::kHyperExp2, mean, m2, p, r1, r2};
}

Distribution Distribution::uniform(double lo, double hi) {
  require(lo >= 0.0 && hi >= lo, "uniform: need 0 <= lo <= hi");
  const double mean = 0.5 * (lo + hi);
  const double var = (hi - lo) * (hi - lo) / 12.0;
  return {DistKind::kUniform, mean, var + mean * mean, lo, hi, 0};
}

Distribution Distribution::lognormal(double mean, double scv) {
  require(mean > 0.0, "lognormal: mean must be > 0");
  require(scv > 0.0, "lognormal: scv must be > 0");
  // mean = exp(mu + sigma^2/2), scv = exp(sigma^2) - 1.
  const double sigma2 = std::log1p(scv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  const double m2 = std::exp(2.0 * mu + 2.0 * sigma2);
  return {DistKind::kLognormal, mean, m2, mu, std::sqrt(sigma2), 0};
}

Distribution Distribution::pareto(double shape, double mean) {
  require(shape > 2.0, "pareto: shape must be > 2 for finite variance");
  require(mean > 0.0, "pareto: mean must be > 0");
  const double xm = mean * (shape - 1.0) / shape;
  const double m2 = shape * xm * xm / (shape - 2.0);
  return {DistKind::kPareto, mean, m2, shape, xm, 0};
}

Distribution Distribution::from_mean_scv(double mean, double scv) {
  require(mean > 0.0, "from_mean_scv: mean must be > 0");
  require(scv >= 0.0, "from_mean_scv: scv must be >= 0");
  if (scv == 0.0) return deterministic(mean);
  if (scv == 1.0) return exponential(mean);  // conv-ok: CONV-5 (exact family dispatch)
  if (scv < 1.0) return gamma(1.0 / scv, mean);
  return hyper_exp2(mean, scv);
}

double Distribution::variance() const { return m2_ - mean_ * mean_; }

double Distribution::third_moment() const {
  switch (kind_) {
    case DistKind::kDeterministic:
      return a_ * a_ * a_;
    case DistKind::kExponential:
      return 6.0 / (a_ * a_ * a_);
    case DistKind::kErlang:
    case DistKind::kGamma:
      // E[X^3] of Gamma(shape k, rate r) = k (k+1) (k+2) / r^3.
      return a_ * (a_ + 1.0) * (a_ + 2.0) / (b_ * b_ * b_);
    case DistKind::kHyperExp2:
      return 6.0 * a_ / (b_ * b_ * b_) + 6.0 * (1.0 - a_) / (c_ * c_ * c_);
    case DistKind::kUniform: {
      if (b_ == a_) return a_ * a_ * a_;
      const double a4 = a_ * a_ * a_ * a_;
      const double b4 = b_ * b_ * b_ * b_;
      return (b4 - a4) / (4.0 * (b_ - a_));
    }
    case DistKind::kLognormal:
      return std::exp(3.0 * a_ + 4.5 * b_ * b_);
    case DistKind::kPareto:
      if (a_ <= 3.0) return std::numeric_limits<double>::infinity();
      return a_ * b_ * b_ * b_ / (a_ - 3.0);
  }
  throw Error("third_moment: unknown distribution kind");
}

double Distribution::scv() const {
  if (mean_ == 0.0) return 0.0;
  return variance() / (mean_ * mean_);
}

Distribution Distribution::scaled_to_mean(double new_mean) const {
  // A law with mean 0 is a point mass at 0 (deterministic(0) or
  // uniform(0, 0)): rescaling leaves it as it is.
  if (mean_ == 0.0 && new_mean == 0.0) return *this;
  require(new_mean > 0.0, "scaled_to_mean: new mean must be > 0");
  switch (kind_) {
    case DistKind::kDeterministic:
      return deterministic(new_mean);
    case DistKind::kExponential:
      return exponential(new_mean);
    case DistKind::kErlang:
      return erlang(static_cast<int>(a_), new_mean);
    case DistKind::kGamma:
      return gamma(a_, new_mean);
    case DistKind::kHyperExp2:
      return hyper_exp2(new_mean, scv());
    case DistKind::kUniform: {
      const double ratio = new_mean / mean_;
      return uniform(a_ * ratio, b_ * ratio);
    }
    case DistKind::kLognormal:
      return lognormal(new_mean, scv());
    case DistKind::kPareto:
      return pareto(a_, new_mean);
  }
  throw Error("scaled_to_mean: unknown distribution kind");
}

namespace {

// Marsaglia–Tsang (2000) gamma sampler for shape >= 1; shapes below 1 use
// the standard boosting trick G(a) = G(a+1) * U^{1/a}.
double sample_gamma(Rng& rng, double shape, double rate) {
  double boost = 1.0;
  if (shape < 1.0) {
    boost = std::pow(rng.uniform01() + 1e-300, 1.0 / shape);
    shape += 1.0;
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = rng.normal(0.0, 1.0);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform01();
    if (u < 1.0 - 0.0331 * x * x * x * x) return boost * d * v / rate;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return boost * d * v / rate;
  }
}

}  // namespace

double Distribution::sample(Rng& rng) const {
  switch (kind_) {
    case DistKind::kDeterministic:
      return a_;
    case DistKind::kExponential:
      return rng.exponential(a_);
    case DistKind::kErlang: {
      // Sum of k exponential stages; k is small in practice (<= ~100).
      const int k = static_cast<int>(a_);
      double sum = 0.0;
      for (int i = 0; i < k; ++i) sum += rng.exponential(b_);
      return sum;
    }
    case DistKind::kGamma:
      return sample_gamma(rng, a_, b_);
    case DistKind::kHyperExp2:
      return rng.bernoulli(a_) ? rng.exponential(b_) : rng.exponential(c_);
    case DistKind::kUniform:
      return rng.uniform(a_, b_);
    case DistKind::kLognormal:
      return std::exp(rng.normal(a_, b_));
    case DistKind::kPareto:
      // Inverse CDF: x_m / U^{1/shape}.
      return b_ / std::pow(1.0 - rng.uniform01(), 1.0 / a_);
  }
  throw Error("sample: unknown distribution kind");
}

std::string Distribution::name() const {
  switch (kind_) {
    case DistKind::kDeterministic: return "deterministic";
    case DistKind::kExponential:   return "exponential";
    case DistKind::kErlang:        return "erlang";
    case DistKind::kGamma:         return "gamma";
    case DistKind::kHyperExp2:     return "hyperexp2";
    case DistKind::kUniform:       return "uniform";
    case DistKind::kLognormal:     return "lognormal";
    case DistKind::kPareto:        return "pareto";
  }
  return "unknown";
}

}  // namespace cpm
