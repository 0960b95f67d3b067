// Resilience behaviour of the sweep subsystem: the cache under injected
// faults (corrupt entries are misses, store failures degrade) and the
// run journal (kill-free library-level resume is byte-identical with
// zero recomputation of journaled points).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "cpm/core/cluster_model.hpp"
#include "cpm/core/model_io.hpp"
#include "cpm/resilience/fault_plan.hpp"
#include "cpm/resilience/faulting_fs.hpp"
#include "cpm/resilience/journal.hpp"
#include "cpm/sweep/runner.hpp"

namespace cpm::sweep {
namespace {

namespace stdfs = std::filesystem;

std::string current_test_name() {
  return testing::UnitTest::GetInstance()->current_test_info()->name();
}

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.model = core::model_to_json(core::make_enterprise_model(0.6));
  JsonObject pipeline;
  pipeline["kind"] = Json("evaluate");
  spec.pipeline = Json(std::move(pipeline));
  Axis a;
  a.param = "rate_scale";
  a.kind = Axis::Kind::kLinear;
  a.from = 0.4;
  a.to = 1.0;
  a.steps = 5;
  spec.axes = {a};
  return spec;
}

resilience::FaultRule rule(const std::string& op, const std::string& path,
                           resilience::FaultKind kind) {
  resilience::FaultRule r;
  r.op = op;
  r.path = path;
  r.kind = kind;
  return r;
}

class SweepResilienceTest : public testing::Test {
 protected:
  std::string dir_ =
      testing::TempDir() + "/cpm-sweep-res-test-" + current_test_name();

  void SetUp() override { stdfs::remove_all(dir_); }
  void TearDown() override { stdfs::remove_all(dir_); }

  RunOptions options() const {
    RunOptions o;
    o.cache.directory = dir_ + "/cache";
    o.threads = 2;
    return o;
  }
};

TEST_F(SweepResilienceTest, TornCacheEntriesAreMissesNeverServed) {
  const auto spec = tiny_spec();
  auto opts = options();
  const auto first = run_sweep(spec, opts);

  // Truncate every cache entry mid-file, as a crash during a non-atomic
  // writer would. The next run must treat them all as misses.
  FileSystem& fs = real_filesystem();
  for (const auto& path : fs.list_files(opts.cache.directory)) {
    const std::string bytes = fs.read(path);
    fs.write_atomic(path, bytes.substr(0, bytes.size() / 2));
  }

  const auto second = run_sweep(spec, opts);
  EXPECT_EQ(second.stats.cache_hits, 0u);
  EXPECT_EQ(second.stats.computed, second.stats.shard_points);
  EXPECT_EQ(second.document.dump(), first.document.dump());
}

TEST_F(SweepResilienceTest, BitFlippedCacheEntriesFailTheChecksumAndMiss) {
  const auto spec = tiny_spec();
  auto opts = options();
  run_sweep(spec, opts);

  resilience::FaultPlan plan;
  plan.seed = 5;
  plan.rules = {rule("read", "/cache/", resilience::FaultKind::kBitFlip)};
  resilience::FaultingFileSystem faulty(real_filesystem(), plan);
  opts.cache.fs = &faulty;

  const auto rerun = run_sweep(spec, opts);
  EXPECT_EQ(rerun.stats.cache_hits, 0u);
  EXPECT_GT(faulty.injected(), 0u);
  // Degraded, not wrong: the recomputed document matches a clean run.
  RunOptions clean;
  clean.cache.enabled = false;
  clean.threads = 2;
  EXPECT_EQ(rerun.document.dump(), run_sweep(spec, clean).document.dump());
}

TEST_F(SweepResilienceTest, TransientReadFaultsDegradeToMisses) {
  const auto spec = tiny_spec();
  auto opts = options();
  run_sweep(spec, opts);

  resilience::FaultPlan plan;
  plan.rules = {rule("read", "/cache/", resilience::FaultKind::kEio)};
  resilience::FaultingFileSystem faulty(real_filesystem(), plan);
  opts.cache.fs = &faulty;

  const auto rerun = run_sweep(spec, opts);  // must not throw
  EXPECT_EQ(rerun.stats.cache_hits, 0u);
  EXPECT_EQ(rerun.stats.computed, rerun.stats.shard_points);
}

TEST_F(SweepResilienceTest, PersistentStoreFailuresAreCountedNotFatal) {
  const auto spec = tiny_spec();
  auto opts = options();
  // Every cache write fails permanently; the run itself must succeed.
  resilience::FaultPlan plan;
  plan.rules = {rule("write", "/cache/", resilience::FaultKind::kEnospc)};
  resilience::FaultingFileSystem faulty(real_filesystem(), plan);
  opts.cache.fs = &faulty;

  const auto result = run_sweep(spec, opts);
  EXPECT_EQ(result.stats.computed, result.stats.shard_points);
  EXPECT_EQ(result.stats.store_failures, result.stats.shard_points);
  EXPECT_TRUE(real_filesystem().list_files(opts.cache.directory).empty());
}

TEST_F(SweepResilienceTest, TransientStoreFaultsAreRetriedThrough) {
  const auto spec = tiny_spec();
  auto opts = options();
  // One transient failure per entry; the retry layer should publish all.
  resilience::FaultPlan plan;
  auto r = rule("write", "/cache/", resilience::FaultKind::kEio);
  r.count = 1;
  plan.rules = {r};
  resilience::FaultingFileSystem faulty(real_filesystem(), plan);
  opts.cache.fs = &faulty;
  opts.cache.retry.backoff_base = units::seconds(0.0);

  const auto result = run_sweep(spec, opts);
  EXPECT_EQ(faulty.injected(), 1u);
  EXPECT_EQ(result.stats.store_failures, 0u);
  EXPECT_FALSE(real_filesystem().list_files(opts.cache.directory).empty());
  // Second run is served entirely from the now-complete cache.
  auto clean = options();
  const auto rerun = run_sweep(spec, clean);
  EXPECT_EQ(rerun.stats.cache_hits, rerun.stats.shard_points);
}

TEST_F(SweepResilienceTest, JournaledResumeIsByteIdenticalWithZeroRecompute) {
  const auto spec = tiny_spec();

  auto gold_opts = options();
  gold_opts.cache.enabled = false;
  const auto gold = run_sweep(spec, gold_opts);

  // First pass journals every point (fresh cache dir so nothing is
  // cache-served and the journal covers the full shard).
  auto first_opts = options();
  first_opts.cache.enabled = false;
  first_opts.journal_path = dir_ + "/run.journal";
  const auto first = run_sweep(spec, first_opts);
  EXPECT_EQ(first.document.dump(), gold.document.dump());

  // Resume against the complete journal: everything restores, nothing
  // recomputes, and the document bytes match the uninterrupted run.
  auto resume_opts = first_opts;
  resume_opts.resume = true;
  const auto resumed = run_sweep(spec, resume_opts);
  EXPECT_EQ(resumed.stats.restored, resumed.stats.shard_points);
  EXPECT_EQ(resumed.stats.computed, 0u);
  EXPECT_EQ(resumed.stats.journal_dropped, 0u);
  EXPECT_EQ(resumed.document.dump(), gold.document.dump());
}

TEST_F(SweepResilienceTest, ResumeRecomputesPointsDroppedFromTheJournal) {
  const auto spec = tiny_spec();
  auto opts = options();
  opts.cache.enabled = false;
  opts.journal_path = dir_ + "/run.journal";
  const auto full = run_sweep(spec, opts);

  // Corrupt the final journal record; resume must drop it, recompute
  // exactly that point, and still produce identical bytes.
  FileSystem& fs = real_filesystem();
  std::string bytes = fs.read(opts.journal_path);
  bytes[bytes.size() - 2] ^= 0x01;
  fs.write_atomic(opts.journal_path, bytes);

  auto resume_opts = opts;
  resume_opts.resume = true;
  const auto resumed = run_sweep(spec, resume_opts);
  EXPECT_EQ(resumed.stats.journal_dropped, 1u);
  EXPECT_EQ(resumed.stats.restored, resumed.stats.shard_points - 1);
  EXPECT_EQ(resumed.stats.computed, 1u);
  EXPECT_EQ(resumed.document.dump(), full.document.dump());
}

TEST_F(SweepResilienceTest, ResumeRecomputesRecordsWithoutAValidIndex) {
  const auto spec = tiny_spec();
  auto opts = options();
  opts.cache.enabled = false;
  opts.journal_path = dir_ + "/run.journal";
  const auto full = run_sweep(spec, opts);

  // Rewrite the journal with valid checksums, but with one record that
  // has no index and one whose index no integer holds.
  FileSystem& fs = real_filesystem();
  const auto replay = resilience::RunJournal::replay(fs, opts.journal_path);
  ASSERT_EQ(replay.records.size(), full.stats.shard_points);
  resilience::RunJournal journal(fs, opts.journal_path);
  journal.begin(replay.header);
  for (std::size_t i = 0; i < replay.records.size(); ++i) {
    JsonObject rec = replay.records[i].as_object();
    if (i == 0) rec.erase("index");
    if (i == 1) rec["index"] = Json(1e300);
    journal.append(Json(std::move(rec)));
  }

  // Both records are skipped and their points recomputed.
  auto resume_opts = opts;
  resume_opts.resume = true;
  const auto resumed = run_sweep(spec, resume_opts);
  EXPECT_EQ(resumed.stats.journal_dropped, 0u);
  EXPECT_EQ(resumed.stats.computed, 2u);
  EXPECT_EQ(resumed.stats.restored, resumed.stats.shard_points - 2);
  EXPECT_EQ(resumed.document.dump(), full.document.dump());
}

TEST_F(SweepResilienceTest, ForeignJournalIsRejectedAsCorrupt) {
  const auto spec = tiny_spec();
  auto opts = options();
  opts.cache.enabled = false;
  opts.journal_path = dir_ + "/run.journal";
  run_sweep(spec, opts);

  auto other = spec;
  other.seed += 1;  // different spec_hash
  auto resume_opts = opts;
  resume_opts.resume = true;
  try {
    run_sweep(other, resume_opts);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kCorrupt);
  }
}

TEST_F(SweepResilienceTest, JournalAppendsRouteThroughTheCacheFilesystem) {
  const auto spec = tiny_spec();
  auto opts = options();
  opts.cache.enabled = false;
  opts.journal_path = dir_ + "/run.journal";

  resilience::FaultPlan plan;
  plan.rules = {rule("append", ".journal", resilience::FaultKind::kEnospc)};
  resilience::FaultingFileSystem faulty(real_filesystem(), plan);
  opts.cache.fs = &faulty;

  EXPECT_THROW(run_sweep(spec, opts), IoError);
  EXPECT_GT(faulty.injected(), 0u);
}

}  // namespace
}  // namespace cpm::sweep
