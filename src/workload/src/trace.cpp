#include "cpm/workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "cpm/common/error.hpp"
#include "cpm/common/stats.hpp"

namespace cpm::workload {

ArrivalTrace ArrivalTrace::from_timestamps(std::vector<double> timestamps) {
  require(timestamps.size() >= 2, "trace: need at least two arrivals");
  for (double t : timestamps)
    require(std::isfinite(t) && t >= 0.0, "trace: timestamps must be finite and >= 0");
  std::sort(timestamps.begin(), timestamps.end());
  return ArrivalTrace(std::move(timestamps));
}

ArrivalTrace ArrivalTrace::parse_csv(const std::string& text) {
  std::vector<double> times;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool header_allowed = true;
  while (std::getline(in, line)) {
    ++line_no;
    // Trim whitespace / CR.
    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const auto end = line.find_last_not_of(" \t\r");
    const std::string token = line.substr(begin, end - begin + 1);
    if (token[0] == '#') continue;
    char* parse_end = nullptr;
    const double t = std::strtod(token.c_str(), &parse_end);
    if (parse_end != token.c_str() + token.size()) {
      if (header_allowed) {  // tolerate one leading header line
        header_allowed = false;
        continue;
      }
      throw Error("trace: line " + std::to_string(line_no) +
                  ": not a timestamp: '" + token + "'");
    }
    header_allowed = false;
    if (!(std::isfinite(t) && t >= 0.0))
      throw Error("trace: line " + std::to_string(line_no) + ": bad timestamp");
    times.push_back(t);
  }
  return from_timestamps(std::move(times));
}

ArrivalTrace ArrivalTrace::poisson(units::Rate rate_q, double duration,
                                   std::uint64_t seed) {
  const double rate = rate_q.value();
  require(rate > 0.0 && duration > 0.0, "trace: poisson needs positive rate/duration");
  Rng rng(seed);
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(rate * duration * 1.2) + 2);
  double t = 0.0;
  for (;;) {
    t += rng.exponential(rate);
    if (t >= duration) break;
    times.push_back(t);
  }
  require(times.size() >= 2, "trace: poisson produced fewer than two arrivals");
  return ArrivalTrace(std::move(times));
}

TraceStats ArrivalTrace::stats() const {
  TraceStats s;
  s.count = times_.size();
  s.duration = times_.back() - times_.front();
  s.mean_rate = units::per_second(
      s.duration > 0.0 ? static_cast<double>(s.count - 1) / s.duration : 0.0);
  RunningStats gaps;
  for (std::size_t i = 1; i < times_.size(); ++i)
    gaps.add(times_[i] - times_[i - 1]);
  const double mean_gap = gaps.mean();
  s.interarrival_scv =
      mean_gap > 0.0 ? gaps.variance() / (mean_gap * mean_gap) : 0.0;
  if (s.duration > 0.0) {
    const auto sched = to_rate_schedule(100);
    s.peak_to_mean =
        sched.max_rate().value() / std::max(sched.mean_rate().value(), 1e-300);
  }
  return s;
}

RateSchedule ArrivalTrace::to_rate_schedule(std::size_t slots) const {
  require(slots >= 1, "trace: need at least one slot");
  const double start = times_.front();
  const double duration = times_.back() - times_.front();
  require(duration > 0.0, "trace: zero-duration trace has no rate function");
  std::vector<double> counts(slots, 0.0);
  const double width = duration / static_cast<double>(slots);
  for (double t : times_) {
    auto idx = static_cast<std::size_t>((t - start) / width);
    if (idx >= slots) idx = slots - 1;  // last arrival lands in the last slot
    counts[idx] += 1.0;
  }
  for (double& c : counts) c /= width;
  return RateSchedule(std::move(counts), duration);
}

}  // namespace cpm::workload
