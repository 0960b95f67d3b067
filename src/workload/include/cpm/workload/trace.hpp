// Arrival traces: empirical workloads from timestamp logs.
//
// Production evaluations replay real request logs; this module is the
// ingestion path. A trace is a sorted list of arrival timestamps, loaded
// from CSV (one timestamp per line, '#' comments tolerated) or built
// programmatically. It can be replayed EXACTLY by the simulator
// (SimClass::arrival_times) or summarised into a piecewise-constant
// RateSchedule for the analytic/controller paths. Burstiness statistics
// (inter-arrival SCV, peak-to-mean ratio) tell you whether a Poisson
// assumption is defensible for the trace at hand.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cpm/workload/rate_schedule.hpp"

namespace cpm::workload {

struct TraceStats {
  std::size_t count = 0;
  double duration = 0.0;          ///< last - first timestamp
  units::Rate mean_rate = units::per_second(0.0);  ///< count / duration
  double interarrival_scv = 0.0;  ///< 1 for Poisson; >1 bursty
  double peak_to_mean = 0.0;      ///< max slot rate / mean (100 slots)
};

class ArrivalTrace {
 public:
  /// Builds from timestamps; they are sorted and must be >= 0 and finite.
  /// At least two arrivals are required.
  static ArrivalTrace from_timestamps(std::vector<double> timestamps);

  /// Parses CSV text: one timestamp per line; blank lines and lines
  /// starting with '#' are skipped; a leading non-numeric header line is
  /// tolerated. Throws cpm::Error with the line number on bad input.
  static ArrivalTrace parse_csv(const std::string& text);

  /// One synthetic Poisson trace (testing / examples). Deterministic in
  /// the seed.
  static ArrivalTrace poisson(units::Rate rate, double duration,
                              std::uint64_t seed);

  [[nodiscard]] const std::vector<double>& timestamps() const { return times_; }
  [[nodiscard]] TraceStats stats() const;

  /// Empirical rate function: arrivals binned into `slots` equal slots
  /// over [first, last]. Slot rates are per unit time.
  [[nodiscard]] RateSchedule to_rate_schedule(std::size_t slots = 100) const;

 private:
  explicit ArrivalTrace(std::vector<double> times) : times_(std::move(times)) {}
  std::vector<double> times_;
};

}  // namespace cpm::workload
