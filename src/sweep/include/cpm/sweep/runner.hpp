// Sweep execution: grid expansion -> cache probe -> parallel compute ->
// `cpm-sweep/v1` result document, with deterministic sharding and merge.
//
// Sharding splits one sweep across CI jobs or machines: shard k of n owns
// every grid point whose index i satisfies i % n == k - 1 (round-robin,
// so consecutive points — which usually differ only in the fastest axis —
// spread evenly and no shard inherits the expensive end of an axis).
// Each shard writes a result document restricted to its points; `merge`
// recombines the shards and is BYTE-IDENTICAL to the document an
// unsharded run produces. That works because every field of the result
// document is deterministic in (spec, engine salt): per-point seeds are
// derived from the point's parameters (not its grid index, so supersets
// of a sweep still hit the cache), and volatile provenance — cached vs
// computed, wall time — lives in a separate `cpm-sweep-stats/v1` sidecar
// rather than the result document.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpm/common/json.hpp"
#include "cpm/resilience/journal.hpp"
#include "cpm/sweep/cache.hpp"
#include "cpm/sweep/spec.hpp"

namespace cpm::sweep {

/// One shard of a sweep, 1-based: "2/3" = ShardSpec{2, 3}.
struct ShardSpec {
  int index = 1;
  int count = 1;
};

/// Parses "k/n"; throws on malformed text or k outside [1, n].
ShardSpec shard_from_string(const std::string& text);

/// True when `shard` owns grid point `point_index` (round-robin).
bool shard_owns(const ShardSpec& shard, std::size_t point_index);

struct RunOptions {
  ShardSpec shard;
  CacheOptions cache;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  /// When non-empty, every completed point (computed or cache-served) is
  /// appended to this cpm-journal/v1 file as it finishes, so a killed
  /// run can be resumed without recomputing finished work. The journal
  /// shares the cache's FileSystem and retry policy.
  std::string journal_path;
  /// Replay `journal_path` before running: points with a valid journal
  /// record are restored verbatim (zero recomputation), the rest run
  /// normally. The final document is byte-identical to an uninterrupted
  /// run. A journal from a different sweep (any header difference: spec
  /// hash, engine, shard or seed) raises IoError(kCorrupt).
  bool resume = false;
};

/// Volatile provenance of one executed point (stats sidecar only).
struct PointStats {
  std::size_t index = 0;
  bool cached = false;
  bool restored = false;  ///< served from the resume journal
  double wall_seconds = 0.0;
};

struct RunStats {
  std::size_t total_points = 0;  ///< full grid
  std::size_t shard_points = 0;  ///< points this shard owns
  std::size_t computed = 0;
  std::size_t cache_hits = 0;
  std::size_t restored = 0;         ///< points restored from the journal
  std::size_t journal_dropped = 0;  ///< torn/corrupt journal lines skipped
  /// Computed points the cache could not store, even after retries.
  std::size_t store_failures = 0;
  double wall_seconds = 0.0;
  unsigned threads_used = 1;
  std::vector<PointStats> points;
};

struct RunResult {
  Json document;  ///< cpm-sweep/v1 (deterministic in spec + salt)
  RunStats stats;
};

/// SHA-256 fingerprint of the canonical spec (identifies a sweep across
/// shards; embedded in every result document).
std::string spec_hash(const SweepSpec& spec, const std::string& engine_salt);

/// Cache key of one point: SHA-256 over {engine salt, model, pipeline,
/// point params, spec seed}.
std::string point_key(const SweepSpec& spec, const PointParams& params,
                      const std::string& engine_salt);

/// Deterministic per-point seed, derived from the spec seed and the
/// point's parameters — NOT its grid index, so extending an axis never
/// reseeds (or un-caches) existing points. Masked to 53 bits so the value
/// round-trips exactly through JSON numbers.
std::uint64_t point_seed(const SweepSpec& spec, const PointParams& params);

/// Expands the grid, serves cached points, executes the misses on the
/// work-stealing pool and assembles the result document for the shard.
RunResult run_sweep(const SweepSpec& spec, const RunOptions& options = {});

/// Merges one document per shard (any order) into the unsharded document.
/// Throws when the documents disagree on the spec, a shard is missing or
/// duplicated, or the union of points is not exactly the full grid.
Json merge_shards(const std::vector<Json>& shard_documents);

/// The `cpm-sweep-stats/v1` sidecar document for a finished run.
Json stats_to_json(const RunStats& stats);

}  // namespace cpm::sweep
