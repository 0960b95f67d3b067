// Unified benchmark harness (cpm::bench).
//
// The repo's one performance harness: it runs named benchmark cases with
// warmup + repeats, aggregates each metric to median / IQR (robust to
// scheduler noise on shared CI runners, unlike mean / stddev), and
// serialises the whole suite to a schema-versioned JSON document
// (`cpm-bench/v1`) that tools/bench_compare.py diffs against a
// checked-in baseline to gate regressions in CI.
//
// A case is a callable that performs one complete unit of work; the
// harness times it (wall + process CPU) and the case reports work
// counters through the Recorder (events processed, replications run,
// ...). Counters become `<name>_per_sec` rates using the same wall
// measurement, so a case never times itself.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cpm/common/json.hpp"

namespace cpm::bench {

struct BenchOptions {
  int warmup = 1;       ///< untimed runs per case before measuring
  int repeats = 5;      ///< timed runs per case (>= 1)
  bool quick = false;   ///< suites shrink workloads for CI smoke runs
};

/// Work counters a benchmark case reports for the run being timed.
/// Each counter `name` with value v becomes the rate `name_per_sec`
/// = v / wall_seconds of that repeat.
class Recorder {
 public:
  /// Records `units` units of work named `name` (accumulates when
  /// called twice with the same name within one repeat).
  void count(const std::string& name, double units) { counts_[name] += units; }

  [[nodiscard]] const std::map<std::string, double>& counts() const {
    return counts_;
  }

 private:
  std::map<std::string, double> counts_;
};

struct BenchCase {
  std::string name;
  std::function<void(Recorder&)> run;
};

/// Robust summary of one metric across repeats. Median and IQR use
/// linearly interpolated quantiles; with repeats == 1 the IQR is 0.
struct SampleStats {
  double median = 0.0;
  double iqr = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> samples;  ///< raw values, in run order
};

/// Computes SampleStats from raw samples (throws on empty input).
SampleStats summarize(std::vector<double> samples);

struct CaseResult {
  std::string name;
  SampleStats wall_seconds;
  SampleStats cpu_seconds;
  /// Derived rates, keyed `<counter>_per_sec`. Counters must be
  /// repeat-invariant: a mismatch across repeats throws.
  std::map<std::string, SampleStats> rates;
};

struct SuiteResult {
  std::string suite;
  BenchOptions options;
  std::vector<CaseResult> cases;
  std::uint64_t peak_rss_bytes = 0;  ///< process peak RSS after the suite
};

/// Runs every case: `options.warmup` untimed runs, then
/// `options.repeats` timed runs, aggregating wall / CPU / rates.
/// Throws cpm::Error for repeats < 1 or an empty case list.
SuiteResult run_suite(const std::string& suite_name,
                      const std::vector<BenchCase>& cases,
                      const BenchOptions& options);

/// Serialises to the `cpm-bench/v1` document bench_compare.py consumes.
Json to_json(const SuiteResult& result);

}  // namespace cpm::bench
