#include "cpm/sweep/spec.hpp"

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/common/fs.hpp"

namespace cpm::sweep {

namespace {

Axis::Kind axis_kind_from_name(const std::string& name) {
  if (name == "linear") return Axis::Kind::kLinear;
  if (name == "log") return Axis::Kind::kLog;
  if (name == "list") return Axis::Kind::kList;
  throw Error("sweep: unknown axis kind '" + name +
              "' (expected linear | log | list)");
}

std::string axis_kind_name(Axis::Kind kind) {
  switch (kind) {
    case Axis::Kind::kLinear: return "linear";
    case Axis::Kind::kLog: return "log";
    case Axis::Kind::kList: return "list";
  }
  throw Error("sweep: corrupt axis kind");
}

std::string read_file_text(const std::string& path) {
  // Through the I/O seam: fault plans can hit referenced-model loads,
  // and the IoError classification reaches cpmctl's exit taxonomy.
  return real_filesystem().read(path);
}

/// Resolves `file_key` ("model_file" / "scenario_file") in `object` into
/// the inline document under `inline_key`, anchored at base_dir.
Json resolve_file_reference(const Json& object, const std::string& inline_key,
                            const std::string& file_key,
                            const std::string& base_dir) {
  const bool has_inline = object.contains(inline_key);
  const bool has_file = object.contains(file_key);
  if (has_inline && has_file)
    throw Error("sweep: give either '" + inline_key + "' or '" + file_key +
                "', not both");
  if (has_inline) return object.at(inline_key);
  if (!has_file) return Json();
  std::string path = object.at(file_key).as_string();
  if (!path.empty() && path[0] != '/') path = base_dir + "/" + path;
  return Json::parse(read_file_text(path));
}

}  // namespace

std::vector<double> Axis::expand() const {
  if (kind == Kind::kList) {
    if (values.empty())
      throw Error("sweep: axis '" + param + "': empty value list");
    return values;
  }
  if (steps < 1)
    throw Error("sweep: axis '" + param + "': steps must be >= 1");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(steps));
  if (steps == 1) {
    out.push_back(from);
    return out;
  }
  if (kind == Kind::kLinear) {
    for (int i = 0; i < steps; ++i)
      out.push_back(from + (to - from) * static_cast<double>(i) /
                               static_cast<double>(steps - 1));
    return out;
  }
  // kLog: geometric spacing between strictly positive endpoints.
  if (from <= 0.0 || to <= 0.0)
    throw Error("sweep: axis '" + param + "': log axes need positive bounds");
  const double ratio = std::log(to / from);
  for (int i = 0; i < steps; ++i)
    out.push_back(from * std::exp(ratio * static_cast<double>(i) /
                                  static_cast<double>(steps - 1)));
  return out;
}

Axis axis_from_json(const Json& json) {
  Axis axis;
  if (!json.is_object() || !json.contains("param"))
    throw Error("sweep: every axis needs a 'param' name");
  axis.param = json.at("param").as_string();
  if (axis.param.empty()) throw Error("sweep: axis 'param' must be non-empty");
  axis.kind = axis_kind_from_name(json.string_or("kind", "list"));
  if (axis.kind == Axis::Kind::kList) {
    if (!json.contains("values"))
      throw Error("sweep: axis '" + axis.param + "': list axes need 'values'");
    for (const auto& v : json.at("values").as_array())
      axis.values.push_back(v.as_number());
  } else {
    if (!json.contains("from") || !json.contains("to") ||
        !json.contains("steps"))
      throw Error("sweep: axis '" + axis.param +
                  "': range axes need 'from', 'to' and 'steps'");
    axis.from = json.at("from").as_number();
    axis.to = json.at("to").as_number();
    axis.steps = json.at("steps").as_integer(1);
  }
  // Validate eagerly so a bad axis fails at parse time, not mid-run.
  (void)axis.expand();
  return axis;
}

Json axis_to_json(const Axis& axis) {
  JsonObject out;
  out["param"] = Json(axis.param);
  out["kind"] = Json(axis_kind_name(axis.kind));
  if (axis.kind == Axis::Kind::kList) {
    JsonArray values;
    for (const double v : axis.values) values.emplace_back(v);
    out["values"] = Json(std::move(values));
  } else {
    out["from"] = Json(axis.from);
    out["to"] = Json(axis.to);
    out["steps"] = Json(axis.steps);
  }
  return Json(std::move(out));
}

SweepSpec spec_from_json(const Json& json, const std::string& base_dir) {
  if (!json.is_object()) throw Error("sweep: spec must be a JSON object");
  const std::string schema = json.string_or("schema", "");
  if (schema != "cpm-sweep/v1")
    throw Error("sweep: unsupported schema '" + schema +
                "' (expected cpm-sweep/v1)");

  SweepSpec spec;
  spec.name = json.string_or("name", "sweep");
  spec.seed = json.integer_or<std::uint64_t>("seed", spec.seed, 0);

  spec.model = resolve_file_reference(json, "model", "model_file", base_dir);

  if (!json.contains("pipeline") || !json.at("pipeline").is_object())
    throw Error("sweep: spec needs a 'pipeline' object");
  // Inline a scenario_file reference (online pipeline) so the parsed
  // pipeline document is self-contained and hashable.
  JsonObject pipeline = json.at("pipeline").as_object();
  const Json scenario = resolve_file_reference(
      json.at("pipeline"), "scenario", "scenario_file", base_dir);
  pipeline.erase("scenario_file");
  if (!scenario.is_null()) pipeline["scenario"] = scenario;
  spec.pipeline = Json(std::move(pipeline));
  if (!spec.pipeline.contains("kind"))
    throw Error("sweep: pipeline needs a 'kind'");

  if (json.contains("axes"))
    for (const auto& axis : json.at("axes").as_array())
      spec.axes.push_back(axis_from_json(axis));
  // Validates duplicates and the size ceiling up front.
  (void)grid_size(spec.axes);
  return spec;
}

SweepSpec spec_from_json_text(const std::string& text,
                              const std::string& base_dir) {
  return spec_from_json(Json::parse(text), base_dir);
}

std::size_t grid_size(const std::vector<Axis>& axes) {
  std::size_t total = 1;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j)
      if (axes[j].param == axes[i].param)
        throw Error("sweep: duplicate axis parameter '" + axes[i].param + "'");
    const std::size_t len = axes[i].expand().size();
    if (total > kMaxGridPoints / len)
      throw Error("sweep: grid exceeds " + std::to_string(kMaxGridPoints) +
                  " points");
    total *= len;
  }
  return total;
}

PointParams grid_point(const std::vector<Axis>& axes, std::size_t index) {
  require(index < grid_size(axes), "sweep: grid point index out of range");
  PointParams params;
  // Row-major, first axis slowest: peel strides from the last axis up.
  std::size_t remainder = index;
  std::vector<std::vector<double>> expanded;
  expanded.reserve(axes.size());
  for (const auto& axis : axes) expanded.push_back(axis.expand());
  for (std::size_t a = axes.size(); a-- > 0;) {
    const std::size_t len = expanded[a].size();
    params[axes[a].param] = expanded[a][remainder % len];
    remainder /= len;
  }
  return params;
}

Json params_to_json(const PointParams& params) {
  JsonObject out;
  for (const auto& [name, value] : params) out[name] = Json(value);
  return Json(std::move(out));
}

}  // namespace cpm::sweep
