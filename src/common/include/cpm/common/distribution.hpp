// Service / inter-arrival time distributions.
//
// Analytical queueing formulas (Pollaczek–Khinchine, Cobham) only need the
// first two moments of service time, while the simulator needs to sample the
// full distribution. `Distribution` is a small value type that supports
// both: closed-form moments and sampling. The supported families cover the
// squared-coefficient-of-variation (SCV) range exercised by the paper's
// model-accuracy experiments: deterministic (SCV 0), Erlang/gamma (SCV < 1),
// exponential (SCV 1), hyperexponential / lognormal / Pareto (SCV > 1).
#pragma once

#include <string>

#include "cpm/common/rng.hpp"

namespace cpm {

enum class DistKind {
  kDeterministic,
  kExponential,
  kErlang,
  kGamma,
  kHyperExp2,
  kUniform,
  kLognormal,
  kPareto,
};

/// Two-moment distribution value type. Construct via the static factories;
/// every factory validates its parameters and throws cpm::Error on misuse.
class Distribution {
 public:
  /// Point mass at `value` (SCV = 0). `value` >= 0.
  static Distribution deterministic(double value);

  /// Exponential with the given mean (SCV = 1).
  static Distribution exponential(double mean);

  /// Erlang-k with the given mean (SCV = 1/k). `k` >= 1.
  static Distribution erlang(int k, double mean);

  /// Gamma with shape `k` (possibly non-integer) and the given mean
  /// (SCV = 1/k). Sampled by Marsaglia–Tsang.
  static Distribution gamma(double shape, double mean);

  /// Balanced-means two-phase hyperexponential with the given mean and
  /// SCV > 1.
  static Distribution hyper_exp2(double mean, double scv);

  /// Uniform on [lo, hi], 0 <= lo <= hi.
  static Distribution uniform(double lo, double hi);

  /// Lognormal with the given (arithmetic) mean and SCV > 0.
  static Distribution lognormal(double mean, double scv);

  /// Pareto with tail index `shape` > 2 (finite variance) and the given
  /// mean. Heavy-tail stressor for the decomposition approximation.
  static Distribution pareto(double shape, double mean);

  /// Picks a family matching (mean, scv): deterministic for scv == 0,
  /// gamma for scv in (0, 1], hyperexponential for scv > 1. This is how
  /// model code turns two-moment tier descriptions into samplable laws.
  static Distribution from_mean_scv(double mean, double scv);

  [[nodiscard]] DistKind kind() const { return kind_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double second_moment() const { return m2_; }
  /// Raw third moment E[X^3]; +infinity for Pareto with shape <= 3.
  /// Needed by the percentile-delay analysis (Takács' M/G/1 waiting-time
  /// second moment involves E[S^3]).
  [[nodiscard]] double third_moment() const;
  /// Squared coefficient of variation Var/Mean^2 (0 for a point mass at 0).
  [[nodiscard]] double scv() const;

  /// Returns a copy rescaled to `new_mean` with the same shape (same SCV).
  /// Optimisers use this when they retune a tier's service rate: the law's
  /// variability is a workload property and must survive the retuning.
  /// `new_mean` must be > 0, except that a law with mean 0 (a point mass at
  /// 0) rescales to itself at mean 0.
  [[nodiscard]] Distribution scaled_to_mean(double new_mean) const;

  /// Draws one variate.
  double sample(Rng& rng) const;

  [[nodiscard]] std::string name() const;

 private:
  Distribution(DistKind kind, double mean, double m2, double p0, double p1,
               double p2)
      : kind_(kind), mean_(mean), m2_(m2), a_(p0), b_(p1), c_(p2) {}

  DistKind kind_;
  double mean_;  // first moment
  double m2_;    // raw second moment E[X^2]
  // Family-specific parameters (documented per-factory in the .cpp):
  double a_, b_, c_;
};

}  // namespace cpm
