#include "cpm/workload/rate_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "cpm/common/error.hpp"

namespace cpm::workload {

RateSchedule::RateSchedule(std::vector<double> slot_rates, double horizon)
    : rates_(std::move(slot_rates)), horizon_(horizon) {
  require(!rates_.empty(), "RateSchedule: need at least one slot");
  require(horizon > 0.0, "RateSchedule: horizon must be positive");
  double max_rate = 0.0;
  for (double r : rates_) {
    require(r >= 0.0, "RateSchedule: rates must be >= 0");
    max_rate = std::max(max_rate, r);
  }
  require(max_rate > 0.0, "RateSchedule: at least one slot must be positive");
  max_rate_ = units::per_second(max_rate);
  slot_width_ = horizon_ / static_cast<double>(rates_.size());
}

RateSchedule RateSchedule::constant(units::Rate rate) {
  return RateSchedule({rate.value()}, 1.0);
}

RateSchedule RateSchedule::diurnal(units::Rate base_rate_q,
                                   units::Rate peak_rate_q, double period,
                                   double peak_time, std::size_t slots) {
  const double base_rate = base_rate_q.value();
  const double peak_rate = peak_rate_q.value();
  require(peak_rate >= base_rate && base_rate >= 0.0,
          "diurnal: need peak_rate >= base_rate >= 0");
  require(slots >= 2, "diurnal: need >= 2 slots");
  std::vector<double> rates(slots);
  const double amplitude = peak_rate - base_rate;
  for (std::size_t i = 0; i < slots; ++i) {
    const double t = (static_cast<double>(i) + 0.5) * period /
                     static_cast<double>(slots);
    const double phase = 2.0 * 3.14159265358979323846 * (t - peak_time) / period;
    rates[i] = base_rate + amplitude * 0.5 * (1.0 + std::cos(phase));
  }
  return RateSchedule(std::move(rates), period);
}

RateSchedule RateSchedule::flash_crowd(units::Rate base_rate_q,
                                       units::Rate spike_rate_q,
                                       double spike_start, double spike_duration,
                                       double horizon, std::size_t slots) {
  const double base_rate = base_rate_q.value();
  const double spike_rate = spike_rate_q.value();
  require(base_rate >= 0.0 && spike_rate >= 0.0, "flash_crowd: negative rates");
  require(spike_start >= 0.0 && spike_duration > 0.0 &&
              spike_start + spike_duration <= horizon,
          "flash_crowd: spike window outside horizon");
  std::vector<double> rates(slots, base_rate);
  const double width = horizon / static_cast<double>(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    const double mid = (static_cast<double>(i) + 0.5) * width;
    if (mid >= spike_start && mid < spike_start + spike_duration)
      rates[i] = spike_rate;
  }
  return RateSchedule(std::move(rates), horizon);
}

RateSchedule RateSchedule::mmpp2(units::Rate low_rate_q, units::Rate high_rate_q,
                                 double mean_low_sojourn, double mean_high_sojourn,
                                 double horizon, std::uint64_t seed,
                                 std::size_t slots) {
  const double low_rate = low_rate_q.value();
  const double high_rate = high_rate_q.value();
  require(low_rate >= 0.0 && high_rate >= low_rate, "mmpp2: need high >= low >= 0");
  require(mean_low_sojourn > 0.0 && mean_high_sojourn > 0.0,
          "mmpp2: sojourns must be positive");
  Rng rng(seed);
  std::vector<double> rates(slots, 0.0);
  const double width = horizon / static_cast<double>(slots);
  double t = 0.0;
  bool high = false;
  double switch_at = rng.exponential(1.0 / mean_low_sojourn);
  for (std::size_t i = 0; i < slots; ++i) {
    // Rate of the slot = state at the slot midpoint (fine-grained slots
    // approximate the continuous path).
    const double mid = (static_cast<double>(i) + 0.5) * width;
    while (switch_at <= mid) {
      t = switch_at;
      high = !high;
      switch_at =
          t + rng.exponential(1.0 / (high ? mean_high_sojourn : mean_low_sojourn));
    }
    rates[i] = high ? high_rate : low_rate;
  }
  return RateSchedule(std::move(rates), horizon);
}

units::Rate RateSchedule::rate_at(double t) const {
  require(t >= 0.0, "RateSchedule: negative time");
  const double local = std::fmod(t, horizon_);
  auto idx = static_cast<std::size_t>(local / slot_width_);
  if (idx >= rates_.size()) idx = rates_.size() - 1;  // fp edge at horizon
  return units::per_second(rates_[idx]);
}

units::Rate RateSchedule::mean_rate() const {
  double sum = 0.0;
  for (double r : rates_) sum += r;
  return units::per_second(sum / static_cast<double>(rates_.size()));
}

double RateSchedule::expected_arrivals(double t0, double t1) const {
  require(t0 >= 0.0 && t1 >= t0, "expected_arrivals: bad interval");
  // Integrate slot by slot. The step to the next slot boundary is floored
  // to guarantee progress: near a boundary, floating-point rounding can
  // otherwise make t + step == t and loop forever.
  double total = 0.0;
  double t = t0;
  while (t < t1) {
    const double local = std::fmod(t, horizon_);
    const auto idx = std::min(static_cast<std::size_t>(local / slot_width_),
                              rates_.size() - 1);
    double step = (static_cast<double>(idx) + 1.0) * slot_width_ - local;
    if (step < slot_width_ * 1e-9) step = slot_width_ * 1e-9;
    const double upto = std::min(t + step, t1);
    total += rates_[idx] * (upto - t);
    if (upto <= t) break;  // t1 == t within rounding
    t = upto;
  }
  return total;
}

double RateSchedule::next_arrival(double now, Rng& rng) const {
  // Lewis-Shedler thinning: candidates at the envelope rate, accepted with
  // probability rate(t)/max_rate.
  double t = now;
  for (;;) {
    t += rng.exponential(max_rate_.value());
    if (rng.uniform01() * max_rate_.value() <= rate_at(t).value()) return t;
  }
}

}  // namespace cpm::workload
