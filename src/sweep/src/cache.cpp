#include "cpm/sweep/cache.hpp"

#include <cstdlib>

#include "cpm/common/error.hpp"
#include "cpm/common/hash.hpp"

namespace cpm::sweep {

std::string default_cache_dir() {
  // The cache location changes where results are stored, never what they
  // are (the key captures everything result-bearing), so the environment
  // read cannot break reproducibility.
  if (const char* env = std::getenv("CPM_SWEEP_CACHE"); env && *env)  // conv-ok: DET-3
    return env;
  return ".cpm-sweep-cache";
}

ResultCache::ResultCache(CacheOptions options) : options_(std::move(options)) {
  if (options_.directory.empty()) options_.directory = default_cache_dir();
}

FileSystem& ResultCache::filesystem() const {
  return options_.fs != nullptr ? *options_.fs : real_filesystem();
}

std::string ResultCache::path_for(const std::string& key) const {
  require(key.size() >= 3, "sweep cache: malformed key");
  return options_.directory + "/" + key.substr(0, 2) + "/" + key + ".json";
}

std::optional<Json> ResultCache::load(const std::string& key) const {
  if (!options_.enabled) return std::nullopt;
  std::string text;
  try {
    text = filesystem().read(path_for(key));
  } catch (const IoError&) {
    return std::nullopt;  // unreadable entry == miss
  }
  try {
    const Json entry = Json::parse(text);
    // Defence in depth: the salt already participates in the key, but a
    // hand-edited or foreign file must still never be served.
    if (entry.string_or("engine", "") != options_.engine_salt)
      return std::nullopt;
    if (entry.string_or("key", "") != key) return std::nullopt;
    if (!entry.contains("result")) return std::nullopt;
    // The result checksum catches silent corruption (bit flips) that
    // still parses as JSON.
    if (entry.string_or("sum", "") != sha256_hex(entry.at("result").dump()))
      return std::nullopt;
    return entry.at("result");
  } catch (const Error&) {
    return std::nullopt;  // truncated or corrupt entry == miss
  }
}

bool ResultCache::store(const std::string& key,
                        const std::string& pipeline_kind,
                        const Json& result) const {
  if (!options_.enabled) return true;
  JsonObject entry;
  entry["engine"] = Json(options_.engine_salt);
  entry["key"] = Json(key);
  entry["pipeline"] = Json(pipeline_kind);
  entry["result"] = result;
  entry["sum"] = Json(sha256_hex(result.dump()));
  const std::string path = path_for(key);
  const std::string content = Json(std::move(entry)).dump(2) + "\n";
  try {
    resilience::with_retry(
        options_.retry, "sweep cache store '" + path + "'",
        [&] { filesystem().write_atomic(path, content); });
  } catch (const IoError&) {
    // Publication failed even after retries. The cache is an
    // accelerator, not a ledger: drop the entry, report the failure, and
    // let a future run recompute the point.
    return false;
  }
  return true;
}

CacheStats ResultCache::stat() const {
  CacheStats stats;
  FileSystem& fs = filesystem();
  for (const std::string& path : fs.list_files(options_.directory)) {
    if (path.size() < 5 || path.substr(path.size() - 5) != ".json") continue;
    std::string text;
    try {
      text = fs.read(path);
    } catch (const IoError&) {
      continue;
    }
    try {
      const Json doc = Json::parse(text);
      if (!doc.contains("key") || !doc.contains("result")) continue;
      stats.entries += 1;
      stats.bytes += static_cast<std::uint64_t>(text.size());
      stats.by_pipeline[doc.string_or("pipeline", "?")] += 1;
      stats.by_engine[doc.string_or("engine", "?")] += 1;
    } catch (const Error&) {
      // foreign or corrupt file: not an entry
    }
  }
  return stats;
}

}  // namespace cpm::sweep
