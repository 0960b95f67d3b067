#include "cpm/sweep/pipeline.hpp"

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cpm/check/invariants.hpp"
#include "cpm/common/error.hpp"
#include "cpm/core/optimizers.hpp"
#include "cpm/online/timeline.hpp"
#include "cpm/queueing/mva.hpp"
#include "cpm/sim/replication.hpp"

namespace cpm::sweep {

namespace {

std::size_t tier_index(const core::ClusterModel& model,
                       const std::string& name) {
  for (std::size_t i = 0; i < model.num_tiers(); ++i)
    if (model.tiers()[i].name == name) return i;
  throw Error("sweep: no tier named '" + name + "'");
}

std::size_t class_index(const core::ClusterModel& model,
                        const std::string& name) {
  for (std::size_t i = 0; i < model.num_classes(); ++i)
    if (model.classes()[i].name == name) return i;
  throw Error("sweep: no class named '" + name + "'");
}

/// A swept value with a fixed pipeline-option fallback.
std::optional<double> lookup(const PointParams& params, const Json& pipeline,
                             const std::string& name) {
  if (const auto it = params.find(name); it != params.end())
    return it->second;
  if (pipeline.contains(name)) return pipeline.at(name).as_number();
  return std::nullopt;
}

double lookup_required(const PointParams& params, const Json& pipeline,
                       const std::string& name) {
  const auto v = lookup(params, pipeline, name);
  if (!v)
    throw Error("sweep: pipeline '" + pipeline_kind(pipeline) +
                "' needs '" + name + "' (axis or pipeline option)");
  return *v;
}

bool audit_enabled(const Json& pipeline) {
  return pipeline.contains("audit") && pipeline.at("audit").as_bool();
}

/// Frequencies for evaluate/simulate: f_max with freq:<tier> overrides.
std::vector<double> frequencies_for(const core::ClusterModel& model,
                                    const PointParams& params) {
  auto f = model.max_frequencies();
  for (const auto& [name, value] : params)
    if (name.rfind("freq:", 0) == 0)
      f[tier_index(model, name.substr(5))] = value;
  return f;
}

Json frequencies_to_json(const core::ClusterModel& model,
                         const std::vector<double>& f) {
  JsonObject out;
  for (std::size_t i = 0; i < model.num_tiers(); ++i)
    out[model.tiers()[i].name] = Json(f[i]);
  return Json(std::move(out));
}

/// Invariant-oracle audit of one stable operating point.
Json audit_to_json(const core::ClusterModel& model,
                   const std::vector<double>& frequencies) {
  const check::Report report = check::check_analytic(model, frequencies);
  JsonObject out;
  out["passed"] = Json(report.all_passed());
  out["worst_violation"] = Json(report.worst_violation());
  out["invariants"] = Json(static_cast<int>(report.checks().size()));
  return Json(std::move(out));
}

Json run_evaluate(const Json& pipeline, const core::ClusterModel& model,
                  const PointParams& params) {
  const auto f = frequencies_for(model, params);
  const auto ev = model.evaluate(f);
  JsonObject out;
  out["stable"] = Json(ev.stable);
  out["frequencies"] = frequencies_to_json(model, f);
  if (ev.stable) {
    out["mean_e2e_delay"] = Json(ev.net.mean_e2e_delay.value());
    out["cluster_power"] = Json(ev.energy.cluster_avg_power.value());
    JsonObject classes;
    for (std::size_t k = 0; k < model.num_classes(); ++k) {
      JsonObject c;
      c["delay"] = Json(ev.net.e2e_delay[k].value());
      c["energy_per_request"] = Json(ev.energy.per_request_energy[k].value());
      classes[model.classes()[k].name] = Json(std::move(c));
    }
    out["classes"] = Json(std::move(classes));
    JsonObject util;
    for (std::size_t s = 0; s < model.num_tiers(); ++s)
      util[model.tiers()[s].name] = Json(ev.net.station_utilization[s]);
    out["utilization"] = Json(std::move(util));
    if (audit_enabled(pipeline)) out["audit"] = audit_to_json(model, f);
  }
  return Json(std::move(out));
}

Json run_optimize_delay(const Json& pipeline, const core::ClusterModel& model,
                        const PointParams& params) {
  double budget;
  if (const auto frac = lookup(params, pipeline, "power_budget_frac")) {
    const double p_min = model.power_at(model.min_stable_frequencies()).value();
    const double p_max = model.power_at(model.max_frequencies()).value();
    budget = p_min + *frac * (p_max - p_min);
  } else {
    budget = lookup_required(params, pipeline, "power_budget");
  }
  const auto r = core::minimize_delay_with_power_budget(model, units::watts(budget),
                                                        pipeline.integer_or("levels", 0, 0));

  JsonObject out;
  out["power_budget"] = Json(budget);
  out["feasible"] = Json(r.feasible);
  if (r.feasible) {
    out["mean_delay"] = Json(r.mean_delay.value());
    out["power"] = Json(r.power.value());
    out["frequencies"] = frequencies_to_json(model, r.frequencies);
    if (pipeline.string_or("baseline", "none") == "uniform") {
      const auto base =
          core::uniform_frequency_baseline(model, units::watts(budget));
      JsonObject b;
      b["kind"] = Json("uniform");
      b["feasible"] = Json(base.feasible);
      if (base.feasible) {
        b["mean_delay"] = Json(base.mean_delay.value());
        b["gain_pct"] = Json(100.0 * (base.mean_delay.value() - r.mean_delay.value()) /
                             base.mean_delay.value());
      }
      out["baseline"] = Json(std::move(b));
    }
    if (audit_enabled(pipeline))
      out["audit"] = audit_to_json(model, r.frequencies);
  }
  return Json(std::move(out));
}

Json run_optimize_power(const Json& pipeline, const core::ClusterModel& model,
                        const PointParams& params) {
  double bound;
  if (const auto factor = lookup(params, pipeline, "delay_bound_factor")) {
    bound = *factor * model.mean_delay_at(model.max_frequencies()).value();
  } else {
    bound = lookup_required(params, pipeline, "delay_bound");
  }
  const auto r = core::minimize_power_with_delay_bound(model, units::seconds(bound),
                                                       pipeline.integer_or("levels", 0, 0));

  JsonObject out;
  out["delay_bound"] = Json(bound);
  out["feasible"] = Json(r.feasible);
  if (r.feasible) {
    out["power"] = Json(r.power.value());
    out["mean_delay"] = Json(r.mean_delay.value());
    out["frequencies"] = frequencies_to_json(model, r.frequencies);
    if (pipeline.string_or("baseline", "none") == "no-dvfs") {
      const double p_max = model.power_at(model.max_frequencies()).value();
      JsonObject b;
      b["kind"] = Json("no-dvfs");
      b["power"] = Json(p_max);
      b["saving_pct"] = Json(100.0 * (p_max - r.power.value()) / p_max);
      out["baseline"] = Json(std::move(b));
    }
    if (audit_enabled(pipeline))
      out["audit"] = audit_to_json(model, r.frequencies);
  }
  return Json(std::move(out));
}

Json run_size(const Json& pipeline, const core::ClusterModel& model,
              const PointParams& params) {
  core::CostOptOptions opts;
  if (const auto v = lookup(params, pipeline, "max_servers"))
    opts.max_servers_per_tier = Json(*v).as_integer(1);
  opts.greedy_only =
      pipeline.contains("greedy") && pipeline.at("greedy").as_bool();
  const auto r = core::minimize_cost_for_slas(model, opts);

  JsonObject out;
  out["feasible"] = Json(r.feasible);
  out["nodes_explored"] = Json(static_cast<double>(r.nodes_explored));
  if (r.feasible) {
    JsonObject servers;
    for (std::size_t i = 0; i < model.num_tiers(); ++i)
      servers[model.tiers()[i].name] = Json(r.servers[i]);
    out["servers"] = Json(std::move(servers));
    out["total_cost"] = Json(r.total_cost);
    JsonObject classes;
    for (std::size_t k = 0; k < model.num_classes(); ++k) {
      JsonObject c;
      c["delay"] = Json(r.evaluation.net.e2e_delay[k].value());
      classes[model.classes()[k].name] = Json(std::move(c));
    }
    out["classes"] = Json(std::move(classes));
    if (audit_enabled(pipeline)) {
      const auto sized = model.with_servers(r.servers);
      out["audit"] = audit_to_json(sized, sized.max_frequencies());
    }
  }
  return Json(std::move(out));
}

Json run_simulate(const Json& pipeline, const core::ClusterModel& model,
                  const PointParams& params, std::uint64_t seed) {
  const auto f = frequencies_for(model, params);
  const double end_time = pipeline.number_or("time", 1000.0);
  const double warmup = pipeline.number_or("warmup", end_time * 0.1);
  sim::ReplicationOptions rep;
  rep.replications = pipeline.integer_or("reps", 4, 2);
  // Points already run in parallel across the sweep pool; nesting the
  // replication pool on top would oversubscribe the machine.
  rep.threads = 1;
  const auto cfg = model.to_sim_config(f, warmup, warmup + end_time, seed);
  const auto r = sim::replicate(cfg, rep);

  JsonObject out;
  out["replications"] = Json(rep.replications);
  JsonObject delay;
  delay["mean"] = Json(r.mean_e2e_delay.mean);
  delay["half_width"] = Json(r.mean_e2e_delay.half_width);
  out["mean_e2e_delay"] = Json(std::move(delay));
  JsonObject pw;
  pw["mean"] = Json(r.cluster_avg_power.mean);
  pw["half_width"] = Json(r.cluster_avg_power.half_width);
  out["cluster_power"] = Json(std::move(pw));
  JsonObject classes;
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    JsonObject c;
    c["mean_delay"] = Json(r.classes[k].mean_e2e_delay.mean);
    c["half_width"] = Json(r.classes[k].mean_e2e_delay.half_width);
    c["p95_delay"] = Json(r.classes[k].p95_e2e_delay.mean);
    c["completed"] = Json(static_cast<double>(r.classes[k].total_completed));
    classes[model.classes()[k].name] = Json(std::move(c));
  }
  out["classes"] = Json(std::move(classes));
  out["total_events"] = Json(static_cast<double>(r.total_events));
  return Json(std::move(out));
}

Json run_online(const Json& pipeline, const core::ClusterModel& model,
                std::uint64_t seed) {
  if (!pipeline.contains("scenario"))
    throw Error("sweep: pipeline 'online' needs 'scenario' or 'scenario_file'");
  auto scenario = online::scenario_from_json(pipeline.at("scenario"));
  scenario.seed = seed;
  const auto r = online::run_online(model, scenario);

  JsonObject out;
  out["windows"] = Json(static_cast<double>(r.windows.size()));
  out["reoptimizations"] = Json(static_cast<double>(r.reoptimizations));
  out["switching_cost_joules"] = Json(r.switching_cost_joules.value());
  JsonObject classes;
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const auto& c = r.sim.classes[k];
    JsonObject cj;
    cj["completed"] = Json(static_cast<double>(c.completed));
    cj["blocked"] = Json(static_cast<double>(c.blocked));
    cj["mean_delay"] = Json(c.mean_e2e_delay.value());
    classes[model.classes()[k].name] = Json(std::move(cj));
  }
  out["classes"] = Json(std::move(classes));
  return Json(std::move(out));
}

/// The closed-network description of the mva pipeline's options.
struct MvaSetup {
  std::vector<queueing::ClosedStation> stations;
  std::vector<double> demands;
};

MvaSetup mva_setup(const Json& pipeline) {
  if (!pipeline.contains("stations"))
    throw Error("sweep: pipeline 'mva' needs a 'stations' array");
  MvaSetup setup;
  for (const auto& s : pipeline.at("stations").as_array()) {
    queueing::ClosedStation station;
    station.name = s.at("name").as_string();
    station.is_delay = s.contains("delay") && s.at("delay").as_bool();
    station.servers = s.integer_or("servers", 1, 1);
    setup.stations.push_back(station);
    setup.demands.push_back(s.at("demand").as_number());
  }
  if (setup.stations.empty())
    throw Error("sweep: pipeline 'mva' needs at least one station");
  return setup;
}

Json run_mva(const Json& pipeline, const PointParams& params,
             std::uint64_t seed) {
  const auto setup = mva_setup(pipeline);
  const int population =
      Json(lookup_required(params, pipeline, "population")).as_integer(1);
  const double think =
      lookup(params, pipeline, "think_time")
          .value_or(pipeline.number_or("think", 0.0));

  const auto mva =
      queueing::exact_mva(setup.stations, setup.demands, population, think);
  const auto bounds =
      queueing::asymptotic_bounds(setup.stations, setup.demands, think);

  JsonObject out;
  out["population"] = Json(population);
  out["throughput"] = Json(mva.throughput[0]);
  out["response_time"] = Json(mva.response_time[0]);
  out["throughput_bound"] = Json(bounds.throughput_bound(population));
  out["response_bound"] = Json(bounds.response_bound(population, think));
  out["knee_population"] = Json(bounds.knee_population);

  // Optional discrete-event cross-check of the analytic numbers.
  if (pipeline.contains("sim")) {
    const Json& sim_opts = pipeline.at("sim");
    sim::SimConfig cfg;
    for (std::size_t i = 0; i < setup.stations.size(); ++i)
      cfg.stations.push_back(sim::SimStation{
          setup.stations[i].name, setup.stations[i].servers,
          queueing::Discipline::kFcfs, units::watts(0.0), units::watts(0.0),
          1.0});
    sim::SimClass users;
    users.name = "users";
    users.population = population;
    if (think > 0.0) users.think_time = Distribution::exponential(think);
    for (std::size_t i = 0; i < setup.stations.size(); ++i)
      users.route.push_back(queueing::Visit{
          static_cast<int>(i), Distribution::exponential(setup.demands[i])});
    cfg.classes = {users};
    cfg.warmup_time = sim_opts.number_or("warmup", 300.0);
    cfg.end_time = cfg.warmup_time + sim_opts.number_or("time", 2000.0);
    cfg.seed = seed;
    const auto r = sim::simulate(cfg);
    JsonObject sj;
    sj["throughput"] =
        Json(static_cast<double>(r.classes[0].completed) / r.measured_time);
    sj["response_time"] = Json(r.classes[0].mean_e2e_delay.value());
    out["sim"] = Json(std::move(sj));
  }
  return Json(std::move(out));
}

/// Axis parameters every model-based pipeline accepts.
bool is_model_param(const std::string& name) {
  return name == "rate_scale" || name.rfind("rate:", 0) == 0 ||
         name.rfind("servers:", 0) == 0;
}

}  // namespace

std::string pipeline_kind(const Json& pipeline) {
  if (!pipeline.is_object() || !pipeline.contains("kind"))
    throw Error("sweep: pipeline needs a 'kind'");
  return pipeline.at("kind").as_string();
}

bool pipeline_needs_model(const std::string& kind) { return kind != "mva"; }

core::ClusterModel apply_model_params(const core::ClusterModel& base,
                                      const PointParams& params) {
  core::ClusterModel model = base;

  std::vector<int> servers;
  for (const auto& [name, value] : params) {
    if (name.rfind("servers:", 0) != 0) continue;
    if (servers.empty())
      for (const auto& t : model.tiers()) servers.push_back(t.servers);
    servers[tier_index(model, name.substr(8))] = Json(value).as_integer(1);
  }
  if (!servers.empty()) model = model.with_servers(servers);

  std::vector<units::Rate> rates;
  for (const auto& [name, value] : params) {
    if (name.rfind("rate:", 0) != 0) continue;
    if (rates.empty())
      for (const auto& c : model.classes()) rates.push_back(c.rate);
    require(value >= 0.0, "sweep: class rates must be non-negative");
    rates[class_index(model, name.substr(5))] = units::per_second(value);
  }
  if (!rates.empty()) model = model.with_rates(rates);

  if (const auto it = params.find("rate_scale"); it != params.end()) {
    require(it->second > 0.0, "sweep: rate_scale must be positive");
    model = model.with_rate_scale(it->second);
  }
  return model;
}

void validate_pipeline(const SweepSpec& spec, const core::ClusterModel* model) {
  const std::string kind = pipeline_kind(spec.pipeline);
  const std::set<std::string> known = {
      "evaluate", "optimize-delay", "optimize-power", "size",
      "simulate", "online",         "mva"};
  if (known.find(kind) == known.end())
    throw Error("sweep: unknown pipeline kind '" + kind + "'");
  if (pipeline_needs_model(kind) && model == nullptr)
    throw Error("sweep: pipeline '" + kind +
                "' needs a model ('model' or 'model_file')");

  PointParams axis_params;
  for (const auto& axis : spec.axes) axis_params[axis.param] = 0.0;

  for (const auto& axis : spec.axes) {
    const std::string& p = axis.param;
    bool ok = false;
    if (pipeline_needs_model(kind) && is_model_param(p)) {
      ok = true;
      // Resolve tier/class references now so a typo fails before any
      // point executes (and before anything lands in the cache).
      if (p.rfind("rate:", 0) == 0) (void)class_index(*model, p.substr(5));
      if (p.rfind("servers:", 0) == 0) (void)tier_index(*model, p.substr(8));
    } else if ((kind == "evaluate" || kind == "simulate") &&
               p.rfind("freq:", 0) == 0) {
      ok = true;
      (void)tier_index(*model, p.substr(5));
    } else if (kind == "optimize-delay" &&
               (p == "power_budget" || p == "power_budget_frac")) {
      ok = true;
    } else if (kind == "optimize-power" &&
               (p == "delay_bound" || p == "delay_bound_factor")) {
      ok = true;
    } else if (kind == "size" && p == "max_servers") {
      ok = true;
    } else if (kind == "mva" && (p == "population" || p == "think_time")) {
      ok = true;
    }
    if (!ok)
      throw Error("sweep: axis parameter '" + p +
                  "' is not understood by pipeline '" + kind + "'");
  }

  // Required swept-or-fixed inputs.
  if (kind == "optimize-delay" &&
      !lookup(axis_params, spec.pipeline, "power_budget") &&
      !lookup(axis_params, spec.pipeline, "power_budget_frac"))
    throw Error(
        "sweep: pipeline 'optimize-delay' needs power_budget or "
        "power_budget_frac");
  if (kind == "optimize-power" &&
      !lookup(axis_params, spec.pipeline, "delay_bound") &&
      !lookup(axis_params, spec.pipeline, "delay_bound_factor"))
    throw Error(
        "sweep: pipeline 'optimize-power' needs delay_bound or "
        "delay_bound_factor");
  // A frequency program takes 0 (continuous) or a lattice of >= 2 levels.
  if ((kind == "optimize-delay" || kind == "optimize-power") &&
      spec.pipeline.integer_or("levels", 0, 0) == 1)
    throw Error("sweep: pipeline '" + kind +
                "' option 'levels' needs 0 (continuous) or >= 2 (P-states), not 1");
  if (kind == "online" && !spec.pipeline.contains("scenario"))
    throw Error("sweep: pipeline 'online' needs 'scenario' or 'scenario_file'");
  if (kind == "mva") {
    (void)mva_setup(spec.pipeline);
    if (!lookup(axis_params, spec.pipeline, "population"))
      throw Error("sweep: pipeline 'mva' needs a population axis or option");
  }
}

Json run_point(const SweepSpec& spec, const core::ClusterModel* model,
               const PointParams& params, std::uint64_t seed) {
  const std::string kind = pipeline_kind(spec.pipeline);
  if (kind == "mva") return run_mva(spec.pipeline, params, seed);

  require(model != nullptr, "sweep: pipeline needs a model");
  const auto point_model = apply_model_params(*model, params);
  if (kind == "evaluate")
    return run_evaluate(spec.pipeline, point_model, params);
  if (kind == "optimize-delay")
    return run_optimize_delay(spec.pipeline, point_model, params);
  if (kind == "optimize-power")
    return run_optimize_power(spec.pipeline, point_model, params);
  if (kind == "size") return run_size(spec.pipeline, point_model, params);
  if (kind == "simulate")
    return run_simulate(spec.pipeline, point_model, params, seed);
  if (kind == "online") return run_online(spec.pipeline, point_model, seed);
  throw Error("sweep: unknown pipeline kind '" + kind + "'");
}

}  // namespace cpm::sweep
