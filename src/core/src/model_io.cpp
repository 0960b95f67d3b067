#include "cpm/core/model_io.hpp"

#include <cmath>
#include <limits>

#include "cpm/common/error.hpp"

namespace cpm::core {

using queueing::Discipline;

Discipline discipline_from_name(const std::string& name) {
  if (name == "fcfs") return Discipline::kFcfs;
  if (name == "np-priority") return Discipline::kNonPreemptivePriority;
  if (name == "p-priority") return Discipline::kPreemptiveResume;
  if (name == "ps") return Discipline::kProcessorSharing;
  throw Error("model_io: unknown discipline '" + name +
              "' (expected fcfs | np-priority | p-priority | ps)");
}

Distribution distribution_from_json(const Json& json) {
  require(json.is_object(), "model_io: service must be an object");
  const std::string kind = json.string_or("dist", "");
  if (kind.empty()) {
    // Generic two-moment form.
    require(json.contains("mean"), "model_io: service needs 'dist' or 'mean'");
    return Distribution::from_mean_scv(json.at("mean").as_number(),
                                       json.number_or("scv", 1.0));
  }
  if (kind == "deterministic")
    return Distribution::deterministic(json.at("value").as_number());
  if (kind == "exponential")
    return Distribution::exponential(json.at("mean").as_number());
  if (kind == "erlang")
    return Distribution::erlang(json.at("k").as_integer(1),
                                json.at("mean").as_number());
  if (kind == "gamma")
    return Distribution::gamma(json.at("shape").as_number(),
                               json.at("mean").as_number());
  if (kind == "hyperexp2")
    return Distribution::hyper_exp2(json.at("mean").as_number(),
                                    json.at("scv").as_number());
  if (kind == "uniform")
    return Distribution::uniform(json.at("lo").as_number(),
                                 json.at("hi").as_number());
  if (kind == "lognormal")
    return Distribution::lognormal(json.at("mean").as_number(),
                                   json.at("scv").as_number());
  if (kind == "pareto")
    return Distribution::pareto(json.at("shape").as_number(),
                                json.at("mean").as_number());
  throw Error("model_io: unknown distribution '" + kind + "'");
}

Json distribution_to_json(const Distribution& dist) {
  JsonObject obj;
  switch (dist.kind()) {
    case DistKind::kDeterministic:
      obj["dist"] = "deterministic";
      obj["value"] = dist.mean();
      break;
    case DistKind::kExponential:
      obj["dist"] = "exponential";
      obj["mean"] = dist.mean();
      break;
    case DistKind::kErlang: {
      obj["dist"] = "erlang";
      obj["k"] = std::round(1.0 / dist.scv());
      obj["mean"] = dist.mean();
      break;
    }
    case DistKind::kGamma:
      obj["dist"] = "gamma";
      obj["shape"] = 1.0 / dist.scv();
      obj["mean"] = dist.mean();
      break;
    case DistKind::kHyperExp2:
      obj["dist"] = "hyperexp2";
      obj["mean"] = dist.mean();
      obj["scv"] = dist.scv();
      break;
    case DistKind::kUniform: {
      // mean = (lo+hi)/2, var = (hi-lo)^2/12.
      const double half_span = std::sqrt(3.0 * dist.variance());
      obj["dist"] = "uniform";
      obj["lo"] = dist.mean() - half_span;
      obj["hi"] = dist.mean() + half_span;
      break;
    }
    case DistKind::kLognormal:
      obj["dist"] = "lognormal";
      obj["mean"] = dist.mean();
      obj["scv"] = dist.scv();
      break;
    case DistKind::kPareto: {
      // scv = (..); recover shape from scv: var/mean^2 = 1/(a(a-2)) ... use
      // E[X^2]/mean^2 = (a-1)^2/(a(a-2)) and solve; simpler: shape from
      // scv c: a = 1 + sqrt(1 + 1/c) (derivation in test_model_io).
      const double c = dist.scv();
      const double shape = 1.0 + std::sqrt(1.0 + 1.0 / c);
      obj["dist"] = "pareto";
      obj["shape"] = shape;
      obj["mean"] = dist.mean();
      break;
    }
  }
  return Json(std::move(obj));
}

namespace {

power::ServerPower power_from_json(const Json& tier) {
  if (!tier.contains("power")) return power::ServerPower::typical_2011_server();
  const Json& p = tier.at("power");
  const Json defaults = power_field_defaults();
  const auto field = [&](const char* key) {
    return p.number_or(key, defaults.at(key).as_number());
  };
  power::DvfsRange dvfs;
  dvfs.f_min = units::hertz(field("f_min"));
  dvfs.f_max = units::hertz(field("f_max"));
  dvfs.f_base = units::hertz(field("f_base"));
  return power::ServerPower(units::watts(field("idle_watts")),
                            units::watts(field("busy_watts")), field("alpha"), dvfs);
}

Json power_to_json(const power::ServerPower& sp) {
  JsonObject p;
  p["idle_watts"] = sp.idle_power().value();
  p["busy_watts"] =
      (sp.idle_power() + sp.dynamic_power(sp.dvfs().f_base)).value();
  p["alpha"] = sp.alpha();
  p["f_min"] = sp.dvfs().f_min.value();
  p["f_max"] = sp.dvfs().f_max.value();
  p["f_base"] = sp.dvfs().f_base.value();
  return Json(std::move(p));
}

int tier_index(const Json& ref, const std::vector<Tier>& tiers,
               const std::string& cls_name) {
  if (ref.is_number()) {
    const int idx = ref.as_integer(0);
    if (static_cast<std::size_t>(idx) >= tiers.size())
      throw Error("model_io: class '" + cls_name +
                  "' routes to tier index out of range");
    return idx;
  }
  const std::string& name = ref.as_string();
  for (std::size_t i = 0; i < tiers.size(); ++i)
    if (tiers[i].name == name) return static_cast<int>(i);
  throw Error("model_io: class '" + cls_name + "' routes to unknown tier '" +
              name + "'");
}

}  // namespace

Json power_field_defaults() {
  return power_to_json(power::ServerPower::typical_2011_server());
}

ClusterModel model_from_json(const Json& json) {
  require(json.is_object(), "model_io: document must be an object");
  require(json.contains("tiers"), "model_io: missing 'tiers'");
  require(json.contains("classes"), "model_io: missing 'classes'");

  std::vector<Tier> tiers;
  for (const auto& tj : json.at("tiers").as_array()) {
    Tier t;
    t.name = tj.at("name").as_string();
    t.servers = tj.integer_or("servers", 1, 1);
    t.discipline = discipline_from_name(tj.string_or("discipline", "np-priority"));
    t.power = power_from_json(tj);
    t.server_cost = tj.number_or("server_cost", 1.0);
    tiers.push_back(std::move(t));
  }

  std::vector<WorkloadClass> classes;
  for (const auto& cj : json.at("classes").as_array()) {
    WorkloadClass c;
    c.name = cj.at("name").as_string();
    c.rate = units::per_second(cj.at("rate").as_number());
    if (cj.contains("sla")) {
      const Json& sla = cj.at("sla");
      c.sla.max_mean_e2e_delay = units::seconds(sla.number_or(
          "max_mean_delay", std::numeric_limits<double>::infinity()));
      c.sla.max_percentile_e2e_delay = units::seconds(sla.number_or(
          "max_percentile_delay", std::numeric_limits<double>::infinity()));
      c.sla.percentile = sla.number_or("percentile", 0.95);
    }
    if (!cj.contains("route"))
      throw Error("model_io: class '" + c.name + "' needs a route");
    for (const auto& step : cj.at("route").as_array()) {
      Demand d;
      d.tier = tier_index(step.at("tier"), tiers, c.name);
      d.base_service = distribution_from_json(step.at("service"));
      c.route.push_back(std::move(d));
    }
    classes.push_back(std::move(c));
  }

  return ClusterModel(std::move(tiers), std::move(classes));
}

ClusterModel model_from_json_text(const std::string& text) {
  return model_from_json(Json::parse(text));
}

Json model_to_json(const ClusterModel& model) {
  JsonArray tiers;
  for (const auto& t : model.tiers()) {
    JsonObject tj;
    tj["name"] = t.name;
    tj["servers"] = t.servers;
    tj["discipline"] = queueing::discipline_name(t.discipline);
    tj["server_cost"] = t.server_cost;
    tj["power"] = power_to_json(t.power);
    tiers.emplace_back(std::move(tj));
  }

  JsonArray classes;
  for (const auto& c : model.classes()) {
    JsonObject cj;
    cj["name"] = c.name;
    cj["rate"] = c.rate.value();
    if (c.sla.bounded()) {
      JsonObject sla;
      if (c.sla.mean_bounded())
        sla["max_mean_delay"] = c.sla.max_mean_e2e_delay.value();
      if (c.sla.percentile_bounded()) {
        sla["max_percentile_delay"] = c.sla.max_percentile_e2e_delay.value();
        sla["percentile"] = c.sla.percentile;
      }
      cj["sla"] = Json(std::move(sla));
    }
    JsonArray route;
    for (const auto& d : c.route) {
      JsonObject step;
      step["tier"] = model.tiers()[static_cast<std::size_t>(d.tier)].name;
      step["service"] = distribution_to_json(d.base_service);
      route.emplace_back(std::move(step));
    }
    cj["route"] = Json(std::move(route));
    classes.emplace_back(std::move(cj));
  }

  JsonObject doc;
  doc["tiers"] = Json(std::move(tiers));
  doc["classes"] = Json(std::move(classes));
  return Json(std::move(doc));
}

}  // namespace cpm::core
