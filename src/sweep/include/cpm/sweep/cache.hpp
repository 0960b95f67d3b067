// Content-addressed on-disk result cache for sweep points.
//
// Every sweep point is keyed by the SHA-256 of a canonical JSON document
// capturing everything that determines its result: the engine salt, the
// model, the pipeline options, the point parameters and the spec seed.
// Identical points across re-runs, supersets and different sweeps hash to
// the same key, so already-computed results are never recomputed; bumping
// the engine salt (done whenever a pipeline's numerics change) invalidates
// every stale entry at once because the salt participates in the key.
//
// Layout: <dir>/<key[0:2]>/<key>.json, each entry a small JSON object
// {"engine", "key", "pipeline", "result", "sum"} where "sum" is the
// SHA-256 of the compact result serialisation. All I/O goes through the
// cpm::FileSystem seam: writes are atomic (temp + rename) and retried
// per the configured RetryPolicy; a store that still fails degrades to a
// no-op that run_sweep counts (the sweep recomputes next time) instead of
// aborting the run. Reads treat every failure — unreadable file, torn
// JSON, checksum mismatch, foreign entry — as a miss, never as an error.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "cpm/common/fs.hpp"
#include "cpm/common/json.hpp"
#include "cpm/resilience/retry.hpp"

namespace cpm::sweep {

/// Version salt folded into every cache key. Bump when a pipeline's
/// numerical behaviour changes so stale results cannot be served.
inline constexpr const char* kEngineSalt = "cpm-sweep-engine/3";

struct CacheOptions {
  /// Cache directory; empty = default_cache_dir().
  std::string directory;
  std::string engine_salt = kEngineSalt;
  /// false = never read or write (every point recomputes).
  bool enabled = true;
  /// Filesystem the cache talks to; null = cpm::real_filesystem().
  /// Non-owning — tests inject a FaultingFileSystem.
  FileSystem* fs = nullptr;
  /// Retry policy around entry publication.
  resilience::RetryPolicy retry;
};

/// Aggregate statistics over a cache directory (`cpmctl sweep stat`).
struct CacheStats {
  std::size_t entries = 0;
  std::uint64_t bytes = 0;
  std::map<std::string, std::size_t> by_pipeline;
  std::map<std::string, std::size_t> by_engine;
};

class ResultCache {
 public:
  explicit ResultCache(CacheOptions options);

  [[nodiscard]] const CacheOptions& options() const { return options_; }

  /// The entry path a key maps to (exists or not).
  [[nodiscard]] std::string path_for(const std::string& key) const;

  /// Returns the cached result for `key`, or nullopt on miss. Unreadable
  /// or corrupt entries (truncated writes from a killed process, bit
  /// flips caught by the "sum" checksum, foreign files) are treated as
  /// misses, never as errors.
  [[nodiscard]] std::optional<Json> load(const std::string& key) const;

  /// Persists a point result under `key` (no-op when disabled).
  /// Transient write failures are retried; a store that still cannot
  /// publish is dropped and returns false, which run_sweep counts in
  /// RunStats::store_failures — a lossy cache is slower, never wrong.
  /// Returns true when the entry was published or the cache is disabled.
  bool store(const std::string& key, const std::string& pipeline_kind,
             const Json& result) const;

  /// Walks the cache directory and aggregates entry statistics.
  [[nodiscard]] CacheStats stat() const;

 private:
  [[nodiscard]] FileSystem& filesystem() const;

  CacheOptions options_;
};

/// $CPM_SWEEP_CACHE when set, else ".cpm-sweep-cache" (relative to the
/// working directory).
std::string default_cache_dir();

}  // namespace cpm::sweep
