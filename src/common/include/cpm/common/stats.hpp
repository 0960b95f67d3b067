// Streaming statistics for simulation output analysis.
//
// Everything here is single-pass and O(1) memory: simulations observe 1e6+
// samples per replication and we never store them. Three estimators cover
// the simulator's needs:
//   RunningStats      — Welford mean/variance over discrete observations
//                       (per-request delays, energies).
//   TimeWeightedStats — integral-average of a piecewise-constant signal
//                       (queue length, utilisation, instantaneous power).
//   P2Quantile        — Jain & Chlamtac's P^2 streaming quantile estimator,
//                       used for percentile-SLA reporting.
// confidence_interval turns independent replication means into
// defensible confidence intervals.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "cpm/common/error.hpp"

namespace cpm {

/// Welford's online mean/variance.
/// `add` is defined inline: the simulator calls it several times per
/// event, and keeping it visible to the optimizer (no cross-TU call)
/// is worth measurable event throughput.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Integral average of a right-continuous step function observed as
/// (time, new_value) updates. Used for E[queue length], utilisation and
/// average power, where the estimate is (1/T) ∫ x(t) dt.
class TimeWeightedStats {
 public:
  /// Starts observation at `time` with value `value`.
  void start(double time, double value);
  /// Records that the signal changed to `value` at `time` (>= last time).
  /// Inline for the same hot-path reason as RunningStats::add.
  void update(double time, double value) {
    require(started_, "TimeWeightedStats: update before start");
    require(time >= last_time_, "TimeWeightedStats: time went backwards");
    integral_ += value_ * (time - last_time_);
    last_time_ = time;
    value_ = value;
  }
  /// Closes the observation window at `time` without changing the value.
  void finish(double time) { update(time, value_); }
  /// Discards history and restarts the window at `time` keeping the current
  /// value — used for warm-up deletion.
  void reset_at(double time);

  [[nodiscard]] double time_average() const;
  /// Raw integral ∫ x(t) dt over the observed window (e.g. energy when the
  /// signal is power).
  [[nodiscard]] double integral() const { return integral_; }

 private:
  bool started_ = false;
  double start_time_ = 0.0;
  double last_time_ = 0.0;
  double value_ = 0.0;
  double integral_ = 0.0;
};

/// P^2 algorithm (Jain & Chlamtac 1985): streaming estimate of a single
/// quantile with five markers, no sample storage.
class P2Quantile {
 public:
  explicit P2Quantile(double quantile);

  void add(double x);
  [[nodiscard]] std::size_t count() const { return n_; }
  /// Current quantile estimate; exact while fewer than 5 samples seen.
  [[nodiscard]] double value() const;

 private:
  double q_;
  std::size_t n_ = 0;
  std::array<double, 5> heights_{};
  std::array<double, 5> positions_{};
  std::array<double, 5> desired_{};
  std::array<double, 5> increments_{};
  std::vector<double> warmup_;  // first <5 samples, kept sorted
};

/// Two-sided confidence interval half-width for the mean of `values`
/// at the given confidence level, using a Student-t critical value.
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;
  [[nodiscard]] double lo() const { return mean - half_width; }
  [[nodiscard]] double hi() const { return mean + half_width; }
  /// half_width / |mean|; infinity when mean == 0.
  [[nodiscard]] double relative() const;
};

ConfidenceInterval confidence_interval(const std::vector<double>& values,
                                       double confidence = 0.95);

/// Student-t critical value t_{df, 1-(1-confidence)/2}. Uses the Cornish–
/// Fisher style expansion around the normal quantile — accurate to ~1e-3
/// for df >= 3, which is ample for simulation CIs.
double t_critical(std::size_t df, double confidence);

/// Inverse standard normal CDF (Acklam's rational approximation, |err| <
/// 1.15e-9). Exposed because percentile SLA math needs it too.
double normal_quantile(double p);

}  // namespace cpm
