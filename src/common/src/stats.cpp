#include "cpm/common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cpm/common/error.hpp"

namespace cpm {

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void TimeWeightedStats::start(double time, double value) {
  started_ = true;
  start_time_ = last_time_ = time;
  value_ = value;
  integral_ = 0.0;
}

void TimeWeightedStats::reset_at(double time) {
  require(started_, "TimeWeightedStats: reset before start");
  require(time >= last_time_, "TimeWeightedStats: time went backwards");
  start_time_ = last_time_ = time;
  integral_ = 0.0;
}

double TimeWeightedStats::time_average() const {
  const double span = last_time_ - start_time_;
  return span > 0.0 ? integral_ / span : value_;
}

P2Quantile::P2Quantile(double quantile) : q_(quantile) {
  require(quantile > 0.0 && quantile < 1.0, "P2Quantile: quantile in (0,1)");
  warmup_.reserve(5);
}

void P2Quantile::add(double x) {
  ++n_;
  if (warmup_.size() < 5) {
    warmup_.insert(std::upper_bound(warmup_.begin(), warmup_.end(), x), x);
    if (warmup_.size() == 5) {
      for (int i = 0; i < 5; ++i) {
        heights_[static_cast<std::size_t>(i)] = warmup_[static_cast<std::size_t>(i)];
        positions_[static_cast<std::size_t>(i)] = i + 1;
      }
      desired_ = {1.0, 1.0 + 2.0 * q_, 1.0 + 4.0 * q_, 3.0 + 2.0 * q_, 5.0};
      increments_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
    }
    return;
  }

  // Locate the cell containing x and update extreme markers.
  std::size_t k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  for (std::size_t i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Adjust the three interior markers with the parabolic (P^2) formula,
  // falling back to linear interpolation when the parabola would cross a
  // neighbouring marker.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const bool move_right = d >= 1.0 && positions_[i + 1] - positions_[i] > 1.0;
    const bool move_left = d <= -1.0 && positions_[i - 1] - positions_[i] < -1.0;
    if (!move_right && !move_left) continue;
    const double sign = move_right ? 1.0 : -1.0;
    const double candidate =
        heights_[i] +
                sign / (positions_[i + 1] - positions_[i - 1]) *
                    ((positions_[i] - positions_[i - 1] + sign) *
                         (heights_[i + 1] - heights_[i]) /
                         (positions_[i + 1] - positions_[i]) +
                     (positions_[i + 1] - positions_[i] - sign) *
                         (heights_[i] - heights_[i - 1]) /
                         (positions_[i] - positions_[i - 1]));
    if (heights_[i - 1] < candidate && candidate < heights_[i + 1]) {
      heights_[i] = candidate;
    } else {
      const std::size_t j = move_right ? i + 1 : i - 1;
      heights_[i] += sign * (heights_[j] - heights_[i]) /
                     (positions_[j] - positions_[i]);
    }
    positions_[i] += sign;
  }
}

double P2Quantile::value() const {
  if (warmup_.size() < 5) {
    if (warmup_.empty()) return 0.0;
    const double idx = q_ * static_cast<double>(warmup_.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, warmup_.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return warmup_[lo] * (1.0 - frac) + warmup_[hi] * frac;
  }
  return heights_[2];
}

double ConfidenceInterval::relative() const {
  if (mean == 0.0) return std::numeric_limits<double>::infinity();
  return half_width / std::abs(mean);
}

double normal_quantile(double p) {
  require(p > 0.0 && p < 1.0, "normal_quantile: p in (0,1)");
  // Acklam's algorithm.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  return x;
}

double t_critical(std::size_t df, double confidence) {
  require(df >= 1, "t_critical: df must be >= 1");
  require(confidence > 0.0 && confidence < 1.0, "t_critical: confidence in (0,1)");
  const double p = 1.0 - (1.0 - confidence) / 2.0;
  // Small-df exact-ish values for the common 95% level keep simulation CIs
  // honest where the asymptotic expansion is weakest.
  if (confidence > 0.9494 && confidence < 0.9506 && df <= 10) {
    static constexpr double t95[] = {12.706, 4.303, 3.182, 2.776, 2.571,
                                     2.447,  2.365, 2.306, 2.262, 2.228};
    return t95[df - 1];
  }
  // Cornish–Fisher expansion of the t quantile around the normal quantile.
  const double z = normal_quantile(p);
  const double n = static_cast<double>(df);
  const double z3 = z * z * z;
  const double z5 = z3 * z * z;
  const double z7 = z5 * z * z;
  return z + (z3 + z) / (4.0 * n) + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * n * n) +
         (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / (384.0 * n * n * n);
}

ConfidenceInterval confidence_interval(const std::vector<double>& values,
                                       double confidence) {
  ConfidenceInterval ci;
  if (values.empty()) return ci;
  RunningStats rs;
  for (double v : values) rs.add(v);
  ci.mean = rs.mean();
  if (values.size() < 2) return ci;
  const double se = rs.stddev() / std::sqrt(static_cast<double>(values.size()));
  ci.half_width = t_critical(values.size() - 1, confidence) * se;
  return ci;
}

}  // namespace cpm
