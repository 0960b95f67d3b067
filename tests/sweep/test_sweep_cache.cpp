#include "cpm/sweep/cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "cpm/common/hash.hpp"

namespace cpm::sweep {
namespace {

namespace fs = std::filesystem;

CacheOptions options_in(const std::string& dir) {
  CacheOptions o;
  o.directory = dir;
  return o;
}

std::string key_of(const std::string& text) { return sha256_hex(text); }

Json result_doc(double value) {
  JsonObject o;
  o["value"] = Json(value);
  return Json(std::move(o));
}

std::string current_test_name() {
  return testing::UnitTest::GetInstance()->current_test_info()->name();
}

class SweepCacheTest : public testing::Test {
 protected:
  std::string dir_ =
      testing::TempDir() + "/cpm-sweep-cache-test-" + current_test_name();

  void SetUp() override { fs::remove_all(dir_); }
  void TearDown() override { fs::remove_all(dir_); }
};

TEST_F(SweepCacheTest, MissOnEmptyCache) {
  const ResultCache cache(options_in(dir_));
  EXPECT_FALSE(cache.load(key_of("nothing")).has_value());
}

TEST_F(SweepCacheTest, StoreThenLoadRoundTrips) {
  const ResultCache cache(options_in(dir_));
  const std::string key = key_of("point-1");
  cache.store(key, "evaluate", result_doc(42.5));
  const auto hit = cache.load(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->at("value").as_number(), 42.5);
}

TEST_F(SweepCacheTest, KeysAreIndependent) {
  const ResultCache cache(options_in(dir_));
  cache.store(key_of("a"), "evaluate", result_doc(1.0));
  cache.store(key_of("b"), "evaluate", result_doc(2.0));
  EXPECT_DOUBLE_EQ(cache.load(key_of("a"))->at("value").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(cache.load(key_of("b"))->at("value").as_number(), 2.0);
}

TEST_F(SweepCacheTest, SaltBumpInvalidatesEntries) {
  // The salt participates in the key upstream, but the cache also embeds
  // it in every entry: an entry written under salt A is never served to a
  // reader configured with salt B, even for the same key string.
  CacheOptions v1 = options_in(dir_);
  v1.engine_salt = "cpm-sweep-engine/1";
  CacheOptions v2 = options_in(dir_);
  v2.engine_salt = "cpm-sweep-engine/2";

  const std::string key = key_of("same-key");
  ResultCache(v1).store(key, "evaluate", result_doc(7.0));
  EXPECT_TRUE(ResultCache(v1).load(key).has_value());
  EXPECT_FALSE(ResultCache(v2).load(key).has_value());
}

TEST_F(SweepCacheTest, DisabledCacheNeverReadsOrWrites) {
  CacheOptions off = options_in(dir_);
  off.enabled = false;
  const ResultCache cache(off);
  const std::string key = key_of("k");
  cache.store(key, "evaluate", result_doc(1.0));
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(SweepCacheTest, CorruptEntryIsAMiss) {
  const ResultCache cache(options_in(dir_));
  const std::string key = key_of("will-corrupt");
  cache.store(key, "evaluate", result_doc(3.0));
  {
    std::ofstream out(cache.path_for(key), std::ios::trunc);
    out << "{\"engine\": \"cpm-sw";  // truncated write
  }
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST_F(SweepCacheTest, DeeplyNestedEntryIsAMiss) {
  // Nesting far past Json::kMaxNesting must fail the parse, not the stack.
  const ResultCache cache(options_in(dir_));
  const std::string key = key_of("nested");
  cache.store(key, "evaluate", result_doc(4.0));
  {
    std::ofstream out(cache.path_for(key), std::ios::trunc);
    out << "{\"engine\": \"cpm-sweep-engine/1\", \"result\": "
        << std::string(200'000, '[');
  }
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST_F(SweepCacheTest, ForeignFileIsAMiss) {
  const ResultCache cache(options_in(dir_));
  const std::string key = key_of("foreign");
  fs::create_directories(fs::path(cache.path_for(key)).parent_path());
  {
    std::ofstream out(cache.path_for(key));
    out << "{\"unrelated\": true}";
  }
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST_F(SweepCacheTest, OverwriteIsLastWriterWins) {
  const ResultCache cache(options_in(dir_));
  const std::string key = key_of("rewrite");
  cache.store(key, "evaluate", result_doc(1.0));
  cache.store(key, "evaluate", result_doc(2.0));
  EXPECT_DOUBLE_EQ(cache.load(key)->at("value").as_number(), 2.0);
}

TEST_F(SweepCacheTest, StatCountsEntriesByPipelineAndEngine) {
  const ResultCache cache(options_in(dir_));
  cache.store(key_of("p1"), "evaluate", result_doc(1.0));
  cache.store(key_of("p2"), "evaluate", result_doc(2.0));
  cache.store(key_of("p3"), "simulate", result_doc(3.0));

  const auto stats = cache.stat();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.by_pipeline.at("evaluate"), 2u);
  EXPECT_EQ(stats.by_pipeline.at("simulate"), 1u);
  EXPECT_EQ(stats.by_engine.at(kEngineSalt), 3u);
}

TEST_F(SweepCacheTest, StatOnMissingDirectoryIsEmpty) {
  const ResultCache cache(options_in(dir_ + "/never-created"));
  const auto stats = cache.stat();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(SweepCacheOptions, EmptyDirectoryFallsBackToDefault) {
  const ResultCache cache((CacheOptions()));
  EXPECT_FALSE(cache.options().directory.empty());
}

TEST(SweepCacheOptions, PathForShardsByKeyPrefix) {
  CacheOptions o;
  o.directory = "cachedir";
  const ResultCache cache(o);
  const std::string key = sha256_hex("x");
  const std::string path = cache.path_for(key);
  EXPECT_EQ(path, "cachedir/" + key.substr(0, 2) + "/" + key + ".json");
}

}  // namespace
}  // namespace cpm::sweep
