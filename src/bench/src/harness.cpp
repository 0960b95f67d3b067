#include "cpm/bench/harness.hpp"

#include <algorithm>
#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/common/perf.hpp"

namespace cpm::bench {

namespace {

/// Linearly interpolated quantile of a sorted sample (type-7, the
/// numpy/R default): exact for the sample sizes benches use (3-30).
double quantile_sorted(const std::vector<double>& sorted, double q) {
  const auto n = sorted.size();
  if (n == 1) return sorted[0];
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Json stats_json(const SampleStats& s) {
  JsonObject o;
  o["median"] = s.median;
  o["iqr"] = s.iqr;
  o["min"] = s.min;
  o["max"] = s.max;
  JsonArray raw;
  for (double v : s.samples) raw.emplace_back(v);
  o["samples"] = Json(std::move(raw));
  return Json(std::move(o));
}

}  // namespace

SampleStats summarize(std::vector<double> samples) {
  require(!samples.empty(), "bench::summarize: no samples");
  SampleStats out;
  out.samples = samples;
  std::sort(samples.begin(), samples.end());
  out.min = samples.front();
  out.max = samples.back();
  out.median = quantile_sorted(samples, 0.5);
  out.iqr = quantile_sorted(samples, 0.75) - quantile_sorted(samples, 0.25);
  return out;
}

SuiteResult run_suite(const std::string& suite_name,
                      const std::vector<BenchCase>& cases,
                      const BenchOptions& options) {
  require(options.repeats >= 1, "bench::run_suite: repeats must be >= 1");
  require(!cases.empty(), "bench::run_suite: no cases");

  SuiteResult result;
  result.suite = suite_name;
  result.options = options;

  for (const auto& c : cases) {
    require(static_cast<bool>(c.run), "bench::run_suite: case without body");
    for (int i = 0; i < options.warmup; ++i) {
      Recorder warm;
      c.run(warm);
    }

    CaseResult cr;
    cr.name = c.name;
    std::vector<double> wall, cpu;
    std::map<std::string, std::vector<double>> rate_samples;
    for (int i = 0; i < options.repeats; ++i) {
      Recorder rec;
      const double cpu0 = process_cpu_seconds();
      const double t0 = monotonic_seconds();
      c.run(rec);
      const double dt = monotonic_seconds() - t0;
      cpu.push_back(process_cpu_seconds() - cpu0);
      wall.push_back(dt);
      // Rates divide by the same wall measurement; clamp pathological
      // sub-resolution runs so a 0-second repeat cannot emit inf.
      const double denom = std::max(dt, 1e-9);
      for (const auto& [name, units] : rec.counts())
        rate_samples[name + "_per_sec"].push_back(units / denom);
      if (i > 0 && rec.counts().size() != cr.counts.size())
        throw Error("bench::run_suite: counters differ across repeats of '" +
                    c.name + "'");
      for (const auto& [name, units] : rec.counts()) {
        if (!(units == std::floor(units) && std::abs(units) < 0x1p53))
          throw Error("bench::run_suite: counter '" + name + "' of '" + c.name +
                      "' is not a whole number");
        const auto exact = static_cast<std::int64_t>(units);
        const auto [it, first] = cr.counts.emplace(name, exact);
        if (!first && it->second != exact)
          throw Error("bench::run_suite: counter '" + name + "' of '" + c.name +
                      "' differs across repeats");
        if (first && i > 0)
          throw Error("bench::run_suite: counter '" + name + "' missing from some repeats of '" +
                      c.name + "'");
      }
    }
    cr.wall_seconds = summarize(std::move(wall));
    cr.cpu_seconds = summarize(std::move(cpu));
    for (auto& [name, samples] : rate_samples) cr.rates[name] = summarize(std::move(samples));
    result.cases.push_back(std::move(cr));
  }

  result.peak_rss_bytes = peak_rss_bytes();
  return result;
}

Json to_json(const SuiteResult& result) {
  JsonObject doc;
  doc["schema"] = "cpm-bench/v1";
  doc["suite"] = result.suite;
  doc["warmup"] = result.options.warmup;
  doc["repeats"] = result.options.repeats;
  doc["quick"] = result.options.quick;
  doc["peak_rss_bytes"] = static_cast<double>(result.peak_rss_bytes);
  JsonArray cases;
  for (const auto& c : result.cases) {
    JsonObject co;
    co["name"] = c.name;
    co["wall_seconds"] = stats_json(c.wall_seconds);
    co["cpu_seconds"] = stats_json(c.cpu_seconds);
    JsonObject rates;
    for (const auto& [name, stats] : c.rates) rates[name] = stats_json(stats);
    co["rates"] = Json(std::move(rates));
    JsonObject counts;
    for (const auto& [name, n] : c.counts) counts[name] = static_cast<double>(n);
    co["counts"] = Json(std::move(counts));
    cases.push_back(Json(std::move(co)));
  }
  doc["cases"] = Json(std::move(cases));
  return Json(std::move(doc));
}

}  // namespace cpm::bench
