// Time-varying arrival-rate schedules (workload generator).
//
// The paper's enterprise application faces nonstationary demand — diurnal
// cycles, flash crowds, bursty (Markov-modulated) sources. This module is
// the substitution for the production traces the original evaluation would
// have drawn on (see DESIGN.md): synthetic schedules with the same coarse
// structure, consumed by the simulator's nonhomogeneous Poisson sources
// and by the online DVFS controller experiments (E9).
//
// A RateSchedule is a piecewise-constant rate function on [0, horizon),
// repeated periodically beyond the horizon.
#pragma once

#include <cstddef>
#include <vector>

#include "cpm/common/rng.hpp"
#include "cpm/common/units.hpp"

namespace cpm::workload {

class RateSchedule {
 public:
  /// Piecewise-constant over equal-width slots spanning [0, horizon).
  /// Slot rates must be >= 0 and at least one must be positive.
  // The slot grid stays a raw array: it is scanned in the simulator's
  // thinning loop (hot-path boundary). // conv-ok: UNIT-4
  RateSchedule(std::vector<double> slot_rates, double horizon);

  /// A single-slot schedule: constant `rate` forever.
  static RateSchedule constant(units::Rate rate);

  /// Sinusoidal diurnal pattern with `slots` steps over `period`:
  /// rate(t) = base + amplitude * (1 + cos(2 pi (t - peak_time)/period))/2.
  static RateSchedule diurnal(units::Rate base_rate, units::Rate peak_rate,
                              double period, double peak_time = 0.0,
                              std::size_t slots = 24);

  /// Flat `base_rate` with a flash crowd of `spike_rate` during
  /// [spike_start, spike_start + spike_duration), slotted at `slots` steps
  /// over `horizon`.
  static RateSchedule flash_crowd(units::Rate base_rate, units::Rate spike_rate,
                                  double spike_start, double spike_duration,
                                  double horizon, std::size_t slots = 100);

  /// One sample path of a two-state Markov-modulated Poisson source:
  /// alternating exponential sojourns in a low-rate and a high-rate state,
  /// discretised to `slots` slots over `horizon`. Deterministic in `seed`.
  static RateSchedule mmpp2(units::Rate low_rate, units::Rate high_rate,
                            double mean_low_sojourn, double mean_high_sojourn,
                            double horizon, std::uint64_t seed,
                            std::size_t slots = 200);

  /// Rate at absolute time t >= 0 (periodic beyond the horizon).
  [[nodiscard]] units::Rate rate_at(double t) const;

  /// The supremum of the rate — the thinning envelope for sampling.
  [[nodiscard]] units::Rate max_rate() const { return max_rate_; }

  /// Average rate over one period.
  [[nodiscard]] units::Rate mean_rate() const;

  /// Expected arrivals in [t0, t1] (integral of the rate).
  [[nodiscard]] double expected_arrivals(double t0, double t1) const;

  [[nodiscard]] double horizon() const { return horizon_; }
  [[nodiscard]] const std::vector<double>& slot_rates() const {  // conv-ok: UNIT-4
    return rates_;
  }

  /// Samples the next arrival after `now` of a nonhomogeneous Poisson
  /// process with this rate function, by thinning against max_rate().
  [[nodiscard]] double next_arrival(double now, Rng& rng) const;

 private:
  std::vector<double> rates_;  ///< raw slot grid, see ctor note // conv-ok: UNIT-4
  double horizon_;
  double slot_width_;
  units::Rate max_rate_ = units::per_second(0.0);
};

}  // namespace cpm::workload
