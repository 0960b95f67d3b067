#include "cpm/bench/harness.hpp"

#include <gtest/gtest.h>

#include "cpm/bench/suites.hpp"
#include "cpm/common/error.hpp"

namespace cpm::bench {
namespace {

TEST(Summarize, SingleSampleHasZeroSpread) {
  const auto s = summarize({3.5});
  EXPECT_EQ(s.median, 3.5);
  EXPECT_EQ(s.iqr, 0.0);
  EXPECT_EQ(s.min, 3.5);
  EXPECT_EQ(s.max, 3.5);
  EXPECT_THROW(summarize({}), Error);
}

TEST(Summarize, MedianAndIqrMatchHandComputation) {
  // Sorted: 1 2 3 4 100 — median 3; Q1 = 2, Q3 = 4 (type-7) -> IQR 2.
  // The outlier moves the max but not the robust stats.
  const auto s = summarize({100.0, 3.0, 1.0, 4.0, 2.0});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.iqr, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  // Raw samples keep run order for downstream inspection.
  EXPECT_EQ(s.samples, (std::vector<double>{100.0, 3.0, 1.0, 4.0, 2.0}));
}

TEST(Summarize, EvenSampleCountInterpolates) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(RunSuite, RunsWarmupPlusRepeatsAndAggregates) {
  int calls = 0;
  BenchOptions opt;
  opt.warmup = 2;
  opt.repeats = 3;
  const auto r = run_suite(
      "t", {BenchCase{"counting", [&](Recorder& rec) {
              ++calls;
              rec.count("units", 10.0);
            }}},
      opt);
  EXPECT_EQ(calls, 5);  // 2 warmup + 3 timed
  ASSERT_EQ(r.cases.size(), 1u);
  EXPECT_EQ(r.cases[0].name, "counting");
  EXPECT_EQ(r.cases[0].wall_seconds.samples.size(), 3u);
  ASSERT_TRUE(r.cases[0].rates.count("units_per_sec"));
  EXPECT_GT(r.cases[0].rates.at("units_per_sec").median, 0.0);
  EXPECT_EQ(r.suite, "t");
}

TEST(RunSuite, RejectsBadOptions) {
  BenchOptions opt;
  opt.repeats = 0;
  EXPECT_THROW(run_suite("t", {BenchCase{"c", [](Recorder&) {}}}, opt), Error);
  opt.repeats = 1;
  EXPECT_THROW(run_suite("t", {}, opt), Error);
}

TEST(ToJson, EmitsVersionedSchemaRoundTrippableDocument) {
  BenchOptions opt;
  opt.warmup = 0;
  opt.repeats = 2;
  opt.quick = true;
  const auto r = run_suite(
      "demo", {BenchCase{"c1", [](Recorder& rec) { rec.count("ops", 5.0); }}},
      opt);
  const auto doc = Json::parse(to_json(r).dump(2));
  EXPECT_EQ(doc.at("schema").as_string(), "cpm-bench/v1");
  EXPECT_EQ(doc.at("suite").as_string(), "demo");
  EXPECT_TRUE(doc.at("quick").as_bool());
  EXPECT_EQ(doc.at("repeats").as_number(), 2.0);
  const auto& c1 = doc.at("cases").at(std::size_t{0});
  EXPECT_EQ(c1.at("name").as_string(), "c1");
  EXPECT_GE(c1.at("wall_seconds").at("median").as_number(), 0.0);
  EXPECT_EQ(c1.at("wall_seconds").at("samples").size(), 2u);
  EXPECT_GT(c1.at("rates").at("ops_per_sec").at("median").as_number(), 0.0);
}

TEST(Suites, P1IsKnownAndOthersAreRejected) {
  const auto names = suite_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names[0], "p1");
  BenchOptions opt;
  EXPECT_THROW(make_suite("nope", opt), Error);
  // Case list is stable: the CI gate matches cases by name.
  const auto cases = make_suite("p1", opt);
  ASSERT_EQ(cases.size(), 6u);
  EXPECT_EQ(cases[0].name, "sim_event_throughput");
  EXPECT_EQ(cases[1].name, "event_heap_push_pop");
  EXPECT_EQ(cases[2].name, "analytic_evaluate");
  EXPECT_EQ(cases[3].name, "replication_throughput");
  EXPECT_EQ(cases[4].name, "optimizer_power_bound");
  EXPECT_EQ(cases[5].name, "json_roundtrip");
}

TEST(Suites, QuickP1RunsEndToEnd) {
  BenchOptions opt;
  opt.quick = true;
  opt.warmup = 0;
  opt.repeats = 1;
  const auto r = run_named_suite("p1", opt);
  ASSERT_EQ(r.cases.size(), 6u);
  for (const auto& c : r.cases) {
    EXPECT_GT(c.wall_seconds.median, 0.0) << c.name;
    EXPECT_FALSE(c.rates.empty()) << c.name;
  }
  ASSERT_TRUE(r.cases[0].rates.count("events_per_sec"));
  EXPECT_GT(r.cases[0].rates.at("events_per_sec").median, 0.0);
  ASSERT_TRUE(r.cases[3].rates.count("replications_per_sec"));
  ASSERT_TRUE(r.cases[5].rates.count("bytes_per_sec"));
  EXPECT_GT(r.cases[5].rates.at("bytes_per_sec").median, 0.0);
#if defined(__linux__)
  EXPECT_GT(r.peak_rss_bytes, 0u);
#endif
}

}  // namespace
}  // namespace cpm::bench
