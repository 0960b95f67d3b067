// Point keys and seeds are a cache format: a change to one byte of the
// text they hash would orphan every user's cache and change the `key` of
// every point in every sweep document. These tests pin literal keys and
// seeds, and check that run_sweep, point_key and point_seed all hash
// exactly the canonical documents the format defines.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cpm/common/hash.hpp"
#include "cpm/common/rng.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/core/model_io.hpp"
#include "cpm/sweep/cache.hpp"
#include "cpm/sweep/runner.hpp"

namespace cpm::sweep {
namespace {

SweepSpec example_spec(const std::string& file) {
  std::ifstream in(std::string(CPM_SWEEPS_DIR) + "/" + file);
  std::stringstream text;
  text << in.rdbuf();
  return spec_from_json_text(text.str(), CPM_SWEEPS_DIR);
}

// The key document, built and dumped whole.
std::string canonical_key(const SweepSpec& spec, const PointParams& params,
                          const std::string& salt) {
  JsonObject doc;
  doc["engine"] = Json(salt);
  doc["model"] = spec.model;
  doc["pipeline"] = spec.pipeline;
  doc["point"] = params_to_json(params);
  doc["seed"] = Json(static_cast<double>(spec.seed));
  return sha256_hex(Json(std::move(doc)).dump());
}

// The seed document, built and dumped whole: the first 16 hex digits of
// its hash, masked to 53 bits, with 0 nudged to 1.
std::uint64_t canonical_seed(const SweepSpec& spec, const PointParams& params) {
  JsonObject doc;
  doc["point"] = params_to_json(params);
  doc["seed"] = Json(static_cast<double>(spec.seed));
  const std::string hex =
      sha256_hex("cpm-sweep-seed:" + Json(std::move(doc)).dump());
  const std::uint64_t seed =
      std::stoull(hex.substr(0, 16), nullptr, 16) & ((1ULL << 53) - 1);
  return seed == 0 ? 1 : seed;
}

TEST(SweepKeyLiterals, E4EnergyPoints) {
  const SweepSpec spec = example_spec("e4_energy.json");
  const PointParams first = grid_point(spec.axes, 0);
  const PointParams last = grid_point(spec.axes, 6);
  ASSERT_EQ(params_to_json(first).dump(), R"({"delay_bound_factor":1.05})");
  ASSERT_EQ(params_to_json(last).dump(), R"({"delay_bound_factor":10})");
  // Recorded under the first engine salt: they pin the keying bytes.
  EXPECT_EQ(point_key(spec, first, "cpm-sweep-engine/1"),
            "4007057640acffb0997c0e89eeb9fa345720260a5611768dcef30d9b4e4d0033");
  EXPECT_EQ(point_seed(spec, first), 8126303430498162u);
  EXPECT_EQ(point_key(spec, last, "cpm-sweep-engine/1"),
            "70f7b6ac241c0d10f477ce974cef81e3b33cf34551f245ef3a8a3c54c60d7cd7");
  EXPECT_EQ(point_seed(spec, last), 8886999854519710u);
  // The engine salt processor sharing on a virtual clock introduced
  // ("cpm-sweep-engine/4"): PS results move in their last bits.
  EXPECT_EQ(point_key(spec, first, kEngineSalt),
            "5bb36015b5b1f3b01e0b1cdaccb334fd979c7c990cdc017086e1eea36e3514b7");
}

TEST(SweepKeyLiterals, ModelFreeMvaPoint) {
  const SweepSpec spec = example_spec("e11_interactive.json");
  ASSERT_TRUE(spec.model.is_null());
  const PointParams point = grid_point(spec.axes, 2);
  ASSERT_EQ(params_to_json(point).dump(), R"({"population":4})");
  EXPECT_EQ(point_key(spec, point, "cpm-sweep-engine/1"),
            "0db6b39c917fcfb15b9a59f427f3932b6b86300c6ee355175c75e6fcbd612915");
  EXPECT_EQ(point_seed(spec, point), 7973212747336474u);
}

Axis list_axis(const std::string& param, std::vector<double> values) {
  Axis axis;
  axis.param = param;
  axis.kind = Axis::Kind::kList;
  axis.values = std::move(values);
  return axis;
}

// A seeded spec with `axes` axes (0 to 4) over one of three pipelines:
// evaluate, online with an inline scenario, or model-free mva.
SweepSpec random_spec(Rng& rng, int axes, int pipeline) {
  SweepSpec spec;
  spec.name = "keys";
  switch (rng.below(4)) {
    case 0: break;  // the default seed
    case 1: spec.seed = 0; break;
    case 2: spec.seed = rng.below(1ULL << 32); break;
    default: spec.seed = rng.next_u64(); break;  // past 2^53: "%.17g" text
  }
  std::vector<std::string> params;
  JsonObject pipe;
  if (pipeline == 2) {
    pipe["kind"] = Json("mva");
    pipe["stations"] = Json::parse(
        R"([{"name": "cpu", "demand": 0.2}, {"name": "disk", "demand": 0.3}])");
    pipe["think"] = Json(rng.uniform(0.5, 3.0));
    pipe["population"] = Json(3);
    params = {"population", "think_time"};
  } else {
    spec.model =
        core::model_to_json(core::make_enterprise_model(rng.uniform(0.3, 0.6)));
    params = {"rate_scale", "rate:gold", "servers:web", "rate:bronze"};
    if (pipeline == 0) {
      pipe["kind"] = Json("evaluate");
      params[3] = "freq:db";
    } else {
      pipe["kind"] = Json("online");
      pipe["scenario"] = Json::parse(R"({
        "schema": "cpm-scenario/v1",
        "horizon": 20, "warmup": 0, "window": 10, "seed": 1,
        "arrivals": [{"class": "gold", "kind": "constant"},
                     {"class": "silver", "kind": "constant"},
                     {"class": "bronze", "kind": "constant"}],
        "faults": []
      })");
    }
  }
  spec.pipeline = Json(std::move(pipe));
  for (int a = 0; a < axes && a < static_cast<int>(params.size()); ++a) {
    const std::string& param = params[static_cast<std::size_t>(a)];
    // The online pipeline simulates every point: keep its grids tiny.
    const std::size_t count = pipeline == 1 && a > 0 ? 1 : 1 + rng.below(2);
    std::vector<double> values;
    for (std::size_t v = 0; v < count; ++v) {
      if (param == "population" || param.rfind("servers:", 0) == 0)
        values.push_back(static_cast<double>(2 + rng.below(4)));
      else if (param.rfind("freq:", 0) == 0)
        values.push_back(rng.uniform(0.8, 1.0));
      else if (param == "think_time")
        values.push_back(rng.uniform(0.5, 3.0));
      else
        values.push_back(rng.uniform(0.4, 0.9));
    }
    spec.axes.push_back(list_axis(param, std::move(values)));
  }
  return spec;
}

TEST(SweepKeyProperty, RunSweepHashesTheCanonicalDocuments) {
  // Quotes, a backslash and a control character in the salt exercise the
  // string escapes of the key prefix.
  const std::vector<std::string> salts = {kEngineSalt,
                                          "salt \"quoted\" \\ back\tslash"};
  Rng rng(20260516);
  int points_checked = 0;
  for (int axes = 0; axes <= 4; ++axes) {
    for (int pipeline = 0; pipeline < 3; ++pipeline) {
      for (const std::string& salt : salts) {
        const SweepSpec spec = random_spec(rng, axes, pipeline);
        RunOptions options;
        options.cache.enabled = false;
        options.cache.engine_salt = salt;
        options.threads = 1;
        const Json doc = run_sweep(spec, options).document;
        const JsonArray& points = doc.at("points").as_array();
        ASSERT_EQ(points.size(), grid_size(spec.axes));
        for (const Json& point : points) {
          const auto index =
              static_cast<std::size_t>(point.at("index").as_number());
          const PointParams params = grid_point(spec.axes, index);
          const std::string& key = point.at("key").as_string();
          const auto seed =
              static_cast<std::uint64_t>(point.at("seed").as_number());
          SCOPED_TRACE(spec.pipeline.dump() + " axes " +
                       std::to_string(axes) + " salt " + salt + " point " +
                       params_to_json(params).dump());
          EXPECT_EQ(key, canonical_key(spec, params, salt));
          EXPECT_EQ(key, point_key(spec, params, salt));
          EXPECT_EQ(seed, canonical_seed(spec, params));
          EXPECT_EQ(seed, point_seed(spec, params));
          ++points_checked;
        }
      }
    }
  }
  EXPECT_GE(points_checked, 40);
}

TEST(SweepEngineSalt, EntriesStoredUnderTheOldSaltAreMisses) {
  // Points the augmented-Lagrangian solver computed were stored under
  // "cpm-sweep-engine/1"; the dual solve's optima differ in low digits, so
  // none of them may be served under the current salt.
  const std::string dir = testing::TempDir() + "/cpm-sweep-old-salt";
  std::filesystem::remove_all(dir);
  const SweepSpec spec = example_spec("e4_energy.json");
  RunOptions old_salt;
  old_salt.cache.directory = dir;
  old_salt.cache.engine_salt = "cpm-sweep-engine/1";
  old_salt.threads = 1;
  EXPECT_EQ(run_sweep(spec, old_salt).stats.computed, 7u);
  RunOptions current;
  current.cache.directory = dir;
  current.threads = 1;
  const RunResult r = run_sweep(spec, current);
  EXPECT_EQ(r.stats.cache_hits, 0u);
  EXPECT_EQ(r.stats.computed, 7u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cpm::sweep
