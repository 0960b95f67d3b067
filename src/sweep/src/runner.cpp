#include "cpm/sweep/runner.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <string_view>

#include "cpm/common/error.hpp"
#include "cpm/common/hash.hpp"
#include "cpm/common/parallel.hpp"
#include "cpm/core/model_io.hpp"
#include "cpm/sweep/pipeline.hpp"

namespace cpm::sweep {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Seeds stay within 2^53 so they survive a JSON number round-trip.
constexpr std::uint64_t kSeedMask = (1ULL << 53) - 1;

/// Canonical text of the spec seed, as the key and seed documents hold it.
std::string seed_text(const SweepSpec& spec) {
  return Json(static_cast<double>(spec.seed)).dump();
}

/// `<point>,"seed":<seed>}`: how both a point's key document and its seed
/// document end, and the only part of either that differs between points.
std::string point_tail(const PointParams& params, const std::string& seed) {
  std::string tail = params_to_json(params).dump();
  tail += ",\"seed\":";
  tail += seed;
  tail += '}';
  return tail;
}

/// A point's seed document, `cpm-sweep-seed:{"point":<point>,"seed":<seed>}`,
/// up to its tail.
constexpr std::string_view kSeedPrefix = "cpm-sweep-seed:{\"point\":";

/// The seed is the first eight bytes of the seed document's hash, read
/// big-endian, cut to kSeedMask.
std::uint64_t seed_from_tail(const std::string& tail) {
  Sha256 h;
  h.update(kSeedPrefix.data(), kSeedPrefix.size());
  h.update(tail);
  const auto digest = h.digest();
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < 8; ++i) prefix = (prefix << 8) | digest[i];
  // A zero seed is legal but conventionally avoided; nudge it.
  const std::uint64_t seed = prefix & kSeedMask;
  return seed == 0 ? 1 : seed;
}

/// Keys of one sweep's points. A key is the SHA-256 of the canonical dump
/// of {"engine","model","pipeline","point","seed"}. Everything before the
/// point is the same for the whole sweep, so the keyer hashes that prefix,
/// `{"engine":<salt>,"model":<model>,"pipeline":<pipeline>,"point":`, once
/// and each point's key only absorbs the point's tail.
class PointKeyer {
 public:
  PointKeyer(const SweepSpec& spec, const std::string& engine_salt)
      : seed_(seed_text(spec)) {
    std::string prefix = "{\"engine\":" + Json(engine_salt).dump();
    prefix += ",\"model\":" + spec.model.dump();
    prefix += ",\"pipeline\":" + spec.pipeline.dump();
    prefix += ",\"point\":";
    prefix_.update(prefix);
  }

  [[nodiscard]] std::string tail(const PointParams& params) const {
    return point_tail(params, seed_);
  }

  [[nodiscard]] std::string key(const std::string& tail) const {
    Sha256 h = prefix_;
    h.update(tail);
    return h.hex_digest();
  }

 private:
  Sha256 prefix_;
  std::string seed_;
};

}  // namespace

ShardSpec shard_from_string(const std::string& text) {
  const auto slash = text.find('/');
  ShardSpec shard;
  try {
    if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size())
      throw Error("sweep: shard must look like K/N");
    std::size_t used_k = 0;
    std::size_t used_n = 0;
    shard.index = std::stoi(text.substr(0, slash), &used_k);
    shard.count = std::stoi(text.substr(slash + 1), &used_n);
    if (used_k != slash || used_n != text.size() - slash - 1)
      throw Error("sweep: shard must look like K/N");
  } catch (const std::logic_error&) {
    throw Error("sweep: invalid shard '" + text + "' (expected K/N)");
  }
  if (shard.count < 1 || shard.index < 1 || shard.index > shard.count)
    throw Error("sweep: shard index must satisfy 1 <= K <= N, got '" + text +
                "'");
  return shard;
}

bool shard_owns(const ShardSpec& shard, std::size_t point_index) {
  return point_index % static_cast<std::size_t>(shard.count) ==
         static_cast<std::size_t>(shard.index - 1);
}

std::string spec_hash(const SweepSpec& spec, const std::string& engine_salt) {
  JsonObject doc;
  doc["engine"] = Json(engine_salt);
  doc["model"] = spec.model;
  doc["pipeline"] = spec.pipeline;
  JsonArray axes;
  for (const auto& axis : spec.axes) axes.push_back(axis_to_json(axis));
  doc["axes"] = Json(std::move(axes));
  doc["seed"] = Json(static_cast<double>(spec.seed));
  return sha256_hex(Json(std::move(doc)).dump());
}

std::string point_key(const SweepSpec& spec, const PointParams& params,
                      const std::string& engine_salt) {
  const PointKeyer keyer(spec, engine_salt);
  return keyer.key(keyer.tail(params));
}

std::uint64_t point_seed(const SweepSpec& spec, const PointParams& params) {
  // The seed document holds no model: never build the keyer here.
  return seed_from_tail(point_tail(params, seed_text(spec)));
}

RunResult run_sweep(const SweepSpec& spec, const RunOptions& options) {
  const auto t_start = std::chrono::steady_clock::now();
  const std::string kind = pipeline_kind(spec.pipeline);

  std::unique_ptr<core::ClusterModel> model;
  if (pipeline_needs_model(kind)) {
    if (spec.model.is_null())
      throw Error("sweep: pipeline '" + kind +
                  "' needs a model ('model' or 'model_file')");
    model = std::make_unique<core::ClusterModel>(
        core::model_from_json(spec.model));
  }
  validate_pipeline(spec, model.get());

  const std::size_t total = grid_size(spec.axes);
  const ResultCache cache(options.cache);
  const std::string& salt = cache.options().engine_salt;
  const std::string fingerprint = spec_hash(spec, salt);

  struct PendingPoint {
    std::size_t index;
    PointParams params;
    std::string key;
    std::uint64_t seed;
    Json result;
    bool cached = false;
    bool restored = false;
    bool store_failed = false;
    double wall_seconds = 0.0;
  };
  std::vector<PendingPoint> owned;
  const PointKeyer keyer(spec, salt);
  for (std::size_t i = 0; i < total; ++i) {
    if (!shard_owns(options.shard, i)) continue;
    PendingPoint p;
    p.index = i;
    p.params = grid_point(spec.axes, i);
    const std::string tail = keyer.tail(p.params);
    p.key = keyer.key(tail);
    p.seed = seed_from_tail(tail);
    owned.push_back(std::move(p));
  }

  RunStats stats;
  stats.total_points = total;
  stats.shard_points = owned.size();

  // Crash-safe journal: replay the survivor on --resume, then append
  // every completion so a later resume starts from here.
  FileSystem& fs = options.cache.fs != nullptr ? *options.cache.fs
                                               : real_filesystem();
  std::unique_ptr<resilience::RunJournal> journal;
  if (!options.journal_path.empty()) {
    journal = std::make_unique<resilience::RunJournal>(
        fs, options.journal_path, options.cache.retry);
    JsonObject header;
    header["schema"] = Json("cpm-journal/v1");
    header["kind"] = Json("sweep");
    header["spec_hash"] = Json(fingerprint);
    header["engine"] = Json(salt);
    header["shard_index"] = Json(options.shard.index);
    header["shard_count"] = Json(options.shard.count);
    header["seed"] = Json(static_cast<double>(spec.seed));
    const resilience::JournalReplay replay = journal->resume_or_begin(
        Json(std::move(header)), options.resume, "sweep resume");
    stats.journal_dropped = replay.dropped;
    // Index completed points by grid index; the key must also match
    // (defence in depth against a reused journal path). A record without
    // a valid index is skipped, and its point recomputed.
    std::map<std::size_t, const Json*> by_index;
    for (const Json& rec : replay.records) {
      try {
        by_index[rec.at("index").as_integer<std::size_t>(0)] = &rec;
      } catch (const Error&) {
        continue;  // no usable index: the point is recomputed
      }
    }
    for (PendingPoint& p : owned) {
      auto it = by_index.find(p.index);
      if (it == by_index.end()) continue;
      if (it->second->string_or("key", "") != p.key) continue;
      if (!it->second->contains("result")) continue;
      p.result = it->second->at("result");
      p.restored = true;
      ++stats.restored;
    }
  }

  auto journal_point = [&](const PendingPoint& p) {
    if (journal == nullptr) return;
    JsonObject rec;
    rec["index"] = Json(static_cast<double>(p.index));
    rec["key"] = Json(p.key);
    rec["result"] = p.result;
    journal->append(Json(std::move(rec)));
  };

  // Serve cache hits serially (cheap file reads), collect the misses.
  std::vector<std::size_t> misses;
  for (std::size_t j = 0; j < owned.size(); ++j) {
    if (owned[j].restored) continue;
    if (auto hit = cache.load(owned[j].key)) {
      owned[j].result = *hit;
      owned[j].cached = true;
      journal_point(owned[j]);
    } else {
      misses.push_back(j);
    }
  }

  stats.cache_hits = owned.size() - misses.size() - stats.restored;
  stats.computed = misses.size();

  if (!misses.empty()) {
    stats.threads_used = parallel_for_index(
        misses.size(), options.threads, [&](std::size_t m) {
          PendingPoint& p = owned[misses[m]];
          const auto t_point = std::chrono::steady_clock::now();
          p.result = run_point(spec, model.get(), p.params, p.seed);
          p.wall_seconds = elapsed_seconds(t_point);
          p.store_failed = !cache.store(p.key, kind, p.result);
          journal_point(p);
        });
  }

  JsonObject doc;
  doc["schema"] = Json("cpm-sweep/v1");
  doc["name"] = Json(spec.name);
  doc["spec_hash"] = Json(fingerprint);
  doc["engine"] = Json(salt);
  doc["seed"] = Json(static_cast<double>(spec.seed));
  doc["pipeline"] = spec.pipeline;
  doc["model"] = spec.model;
  JsonArray axes;
  for (const auto& axis : spec.axes) axes.push_back(axis_to_json(axis));
  doc["axes"] = Json(std::move(axes));
  doc["total_points"] = Json(static_cast<double>(total));
  if (options.shard.count > 1) {
    JsonObject shard;
    shard["index"] = Json(options.shard.index);
    shard["count"] = Json(options.shard.count);
    doc["shard"] = Json(std::move(shard));
  }
  JsonArray points;
  for (const auto& p : owned) {
    JsonObject pj;
    pj["index"] = Json(static_cast<double>(p.index));
    pj["params"] = params_to_json(p.params);
    pj["key"] = Json(p.key);
    pj["seed"] = Json(static_cast<double>(p.seed));
    pj["result"] = p.result;
    points.push_back(Json(std::move(pj)));
    stats.points.push_back(
        PointStats{p.index, p.cached, p.restored, p.wall_seconds});
    if (p.store_failed) ++stats.store_failures;
  }
  doc["points"] = Json(std::move(points));

  stats.wall_seconds = elapsed_seconds(t_start);
  return RunResult{Json(std::move(doc)), std::move(stats)};
}

Json merge_shards(const std::vector<Json>& shard_documents) {
  require(!shard_documents.empty(), "sweep merge: no shard documents");
  const Json& first = shard_documents.front();
  if (first.string_or("schema", "") != "cpm-sweep/v1")
    throw Error("sweep merge: not a cpm-sweep/v1 document");
  const std::string fingerprint = first.string_or("spec_hash", "");

  int shard_count = 0;
  std::vector<bool> shards_seen;
  std::map<std::size_t, Json> by_index;
  for (const auto& doc : shard_documents) {
    if (doc.string_or("schema", "") != "cpm-sweep/v1")
      throw Error("sweep merge: not a cpm-sweep/v1 document");
    if (doc.string_or("spec_hash", "") != fingerprint)
      throw Error("sweep merge: shards come from different sweeps "
                  "(spec_hash mismatch)");
    if (!doc.contains("shard"))
      throw Error("sweep merge: document has no 'shard' field "
                  "(already merged or unsharded?)");
    const int count = doc.at("shard").at("count").as_integer(1);
    const int index = doc.at("shard").at("index").as_integer(1);
    if (shard_count == 0) {
      shard_count = count;
      if (static_cast<std::size_t>(count) != shard_documents.size())
        throw Error("sweep merge: expected " + std::to_string(count) +
                    " shard documents, got " +
                    std::to_string(shard_documents.size()));
      shards_seen.assign(static_cast<std::size_t>(count), false);
    }
    if (count != shard_count)
      throw Error("sweep merge: shards disagree on the shard count");
    if (index > count)
      throw Error("sweep merge: shard index out of range");
    auto seen = shards_seen[static_cast<std::size_t>(index - 1)];
    if (seen)
      throw Error("sweep merge: shard " + std::to_string(index) +
                  "/" + std::to_string(count) + " appears twice");
    shards_seen[static_cast<std::size_t>(index - 1)] = true;

    for (const auto& point : doc.at("points").as_array()) {
      const auto idx = point.at("index").as_integer<std::size_t>(0);
      if (by_index.count(idx) > 0)
        throw Error("sweep merge: point " + std::to_string(idx) +
                    " appears in more than one shard");
      by_index[idx] = point;
    }
  }
  const auto total = first.at("total_points").as_integer<std::size_t>(0);
  if (by_index.size() != total)
    throw Error("sweep merge: shards cover " +
                std::to_string(by_index.size()) + " of " +
                std::to_string(total) + " points");
  for (std::size_t i = 0; i < total; ++i)
    if (by_index.count(i) == 0)
      throw Error("sweep merge: point " + std::to_string(i) + " is missing");

  // Rebuild the unsharded document: same fields, no 'shard', full grid.
  JsonObject merged = first.as_object();
  merged.erase("shard");
  JsonArray points;
  for (auto& [idx, point] : by_index) points.push_back(std::move(point));
  merged["points"] = Json(std::move(points));
  return Json(std::move(merged));
}

Json stats_to_json(const RunStats& stats) {
  JsonObject doc;
  doc["schema"] = Json("cpm-sweep-stats/v1");
  doc["total_points"] = Json(static_cast<double>(stats.total_points));
  doc["shard_points"] = Json(static_cast<double>(stats.shard_points));
  doc["computed"] = Json(static_cast<double>(stats.computed));
  doc["cache_hits"] = Json(static_cast<double>(stats.cache_hits));
  doc["restored"] = Json(static_cast<double>(stats.restored));
  doc["journal_dropped"] = Json(static_cast<double>(stats.journal_dropped));
  doc["store_failures"] = Json(static_cast<double>(stats.store_failures));
  doc["cache_hit_rate"] =
      Json(stats.shard_points == 0
               ? 0.0
               : static_cast<double>(stats.cache_hits) /
                     static_cast<double>(stats.shard_points));
  doc["wall_seconds"] = Json(stats.wall_seconds);
  doc["threads_used"] = Json(static_cast<double>(stats.threads_used));
  JsonArray points;
  for (const auto& p : stats.points) {
    JsonObject pj;
    pj["index"] = Json(static_cast<double>(p.index));
    pj["cached"] = Json(p.cached);
    pj["restored"] = Json(p.restored);
    pj["wall_seconds"] = Json(p.wall_seconds);
    points.push_back(Json(std::move(pj)));
  }
  doc["points"] = Json(std::move(points));
  return Json(std::move(doc));
}

}  // namespace cpm::sweep
