#include "cpm/online/scenario.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "cpm/common/error.hpp"

namespace cpm::online {

namespace {

ArrivalShape::Kind arrival_kind_from_name(const std::string& name) {
  if (name == "constant") return ArrivalShape::Kind::kConstant;
  if (name == "step") return ArrivalShape::Kind::kStep;
  if (name == "ramp") return ArrivalShape::Kind::kRamp;
  if (name == "diurnal") return ArrivalShape::Kind::kDiurnal;
  if (name == "flash") return ArrivalShape::Kind::kFlash;
  throw Error("scenario: unknown arrival kind '" + name +
              "' (expected constant | step | ramp | diurnal | flash)");
}

sim::FaultKind fault_kind_from_name(const std::string& name) {
  if (name == "servers-delta") return sim::FaultKind::kServersDelta;
  if (name == "set-servers") return sim::FaultKind::kSetServers;
  if (name == "set-capacity") return sim::FaultKind::kSetCapacity;
  throw Error("scenario: unknown fault kind '" + name +
              "' (expected servers-delta | set-servers | set-capacity)");
}

ArrivalShape arrival_from_json(const Json& json) {
  require(json.is_object(), "scenario: arrivals entries must be objects");
  ArrivalShape shape;
  require(json.contains("class"), "scenario: arrivals entry needs 'class'");
  shape.cls = json.at("class").as_string();
  shape.kind = arrival_kind_from_name(json.string_or("kind", "constant"));
  shape.factor = json.number_or("factor", 1.0);
  require(shape.factor >= 0.0, "scenario: arrival factor must be >= 0");
  switch (shape.kind) {
    case ArrivalShape::Kind::kConstant:
      break;
    case ArrivalShape::Kind::kStep:
      require(json.contains("at"), "scenario: step arrival needs 'at'");
      shape.at = json.at("at").as_number();
      break;
    case ArrivalShape::Kind::kRamp:
      require(json.contains("from") && json.contains("to"),
              "scenario: ramp arrival needs 'from' and 'to'");
      shape.from = json.at("from").as_number();
      shape.to = json.at("to").as_number();
      require(shape.to > shape.from, "scenario: ramp needs to > from");
      break;
    case ArrivalShape::Kind::kDiurnal:
      shape.period = json.number_or("period", 0.0);
      shape.peak_time = json.number_or("peak_time", 0.0);
      break;
    case ArrivalShape::Kind::kFlash:
      require(json.contains("spike_start") && json.contains("spike_duration"),
              "scenario: flash arrival needs 'spike_start' and "
              "'spike_duration'");
      shape.spike_start = json.at("spike_start").as_number();
      shape.spike_duration = json.at("spike_duration").as_number();
      require(shape.spike_duration > 0.0,
              "scenario: flash spike_duration must be positive");
      break;
  }
  return shape;
}

ScenarioFault fault_from_json(const Json& json) {
  require(json.is_object(), "scenario: faults entries must be objects");
  require(json.contains("time"), "scenario: fault needs 'time'");
  require(json.contains("tier"), "scenario: fault needs 'tier'");
  require(json.contains("kind"), "scenario: fault needs 'kind'");
  require(json.contains("value"), "scenario: fault needs 'value'");
  ScenarioFault fault;
  fault.time = json.at("time").as_number();
  require(fault.time >= 0.0, "scenario: fault time must be >= 0");
  fault.tier = json.at("tier").as_string();
  fault.kind = fault_kind_from_name(json.at("kind").as_string());
  fault.value = json.at("value").as_integer(std::numeric_limits<int>::min());
  return fault;
}

void controller_from_json(const Json& json, ControllerOptions& opts) {
  require(json.is_object(), "scenario: 'controller' must be an object");
  opts.hysteresis = json.number_or("hysteresis", opts.hysteresis);
  opts.drift_windows = json.integer_or("drift_windows", opts.drift_windows, 1);
  opts.cooldown_windows =
      json.integer_or("cooldown_windows", opts.cooldown_windows, 0);
  opts.ewma_alpha = json.number_or("ewma_alpha", opts.ewma_alpha);
  opts.estimator_windows = json.integer_or<std::size_t>(
      "estimator_windows", opts.estimator_windows, 1);
  opts.levels = json.integer_or("levels", opts.levels, 2);
  opts.rate_headroom = json.number_or("rate_headroom", opts.rate_headroom);
  if (json.contains("size_servers"))
    opts.size_servers = json.at("size_servers").as_bool();
  opts.max_servers_per_tier =
      json.integer_or("max_servers_per_tier", opts.max_servers_per_tier, 1);
  opts.max_server_step =
      json.integer_or("max_server_step", opts.max_server_step, 1);
  opts.max_freq_step =
      units::hertz(json.number_or("max_freq_step", opts.max_freq_step.value()));
  opts.server_switch_cost_j = units::joules(
      json.number_or("server_switch_cost_j", opts.server_switch_cost_j.value()));
  opts.freq_switch_cost_j = units::joules(
      json.number_or("freq_switch_cost_j", opts.freq_switch_cost_j.value()));
  opts.sla_trigger = json.number_or("sla_trigger", opts.sla_trigger);
}

}  // namespace

Scenario scenario_from_json(const Json& json) {
  require(json.is_object(), "scenario: document must be an object");
  const std::string schema = json.string_or("schema", "cpm-scenario/v1");
  if (schema != "cpm-scenario/v1")
    throw Error("scenario: unsupported schema '" + schema + "'");

  Scenario s;
  s.horizon = json.number_or("horizon", s.horizon);
  require(s.horizon > 0.0, "scenario: horizon must be positive");
  s.warmup = json.number_or("warmup", s.warmup);
  require(s.warmup >= 0.0 && s.warmup < s.horizon,
          "scenario: warmup must be in [0, horizon)");
  s.window = json.number_or("window", s.window);
  require(s.window > 0.0, "scenario: window must be positive");
  s.seed = json.integer_or<std::uint64_t>("seed", 1, 0);

  if (json.contains("arrivals"))
    for (const auto& a : json.at("arrivals").as_array())
      s.arrivals.push_back(arrival_from_json(a));
  for (const auto& a : s.arrivals) {
    std::size_t uses = 0;
    for (const auto& b : s.arrivals)
      if (b.cls == a.cls) ++uses;
    if (uses != 1)
      throw Error("scenario: class '" + a.cls + "' has multiple arrivals entries");
  }

  if (json.contains("faults"))
    for (const auto& f : json.at("faults").as_array()) {
      require(f.is_object(), "scenario: faults entries must be objects");
      if (f.string_or("kind", "") == "telemetry-dropout") {
        require(f.contains("time"),
                "scenario: telemetry-dropout needs 'time'");
        require(f.contains("duration"),
                "scenario: telemetry-dropout needs 'duration'");
        const double start = f.at("time").as_number();
        const double duration = f.at("duration").as_number();
        require(start >= 0.0, "scenario: fault time must be >= 0");
        require(duration > 0.0,
                "scenario: telemetry-dropout duration must be positive");
        s.dropouts.push_back(TelemetryDropout{
            units::seconds(start), units::seconds(start + duration)});
        continue;
      }
      s.faults.push_back(fault_from_json(f));
    }

  if (json.contains("controller"))
    controller_from_json(json.at("controller"), s.controller);
  return s;
}

Scenario scenario_from_json_text(const std::string& text) {
  return scenario_from_json(Json::parse(text));
}

workload::RateSchedule build_schedule(const ArrivalShape& shape,
                                      units::Rate base_rate_q, double horizon) {
  require(horizon > 0.0, "build_schedule: horizon must be positive");
  const double base_rate = base_rate_q.value();
  // Slot count trades schedule fidelity against thinning-envelope
  // tightness; 200 matches the workload module's own factory defaults.
  constexpr std::size_t kSlots = 200;
  const double width = horizon / static_cast<double>(kSlots);

  switch (shape.kind) {
    case ArrivalShape::Kind::kConstant:
      return workload::RateSchedule::constant(
          units::per_second(base_rate * shape.factor));
    case ArrivalShape::Kind::kStep: {
      std::vector<double> rates(kSlots);
      for (std::size_t i = 0; i < kSlots; ++i) {
        const double mid = (static_cast<double>(i) + 0.5) * width;
        rates[i] = mid < shape.at ? base_rate : base_rate * shape.factor;
      }
      return workload::RateSchedule(std::move(rates), horizon);
    }
    case ArrivalShape::Kind::kRamp: {
      std::vector<double> rates(kSlots);
      for (std::size_t i = 0; i < kSlots; ++i) {
        const double mid = (static_cast<double>(i) + 0.5) * width;
        const double progress =
            std::clamp((mid - shape.from) / (shape.to - shape.from), 0.0, 1.0);
        rates[i] = base_rate * (1.0 + progress * (shape.factor - 1.0));
      }
      return workload::RateSchedule(std::move(rates), horizon);
    }
    case ArrivalShape::Kind::kDiurnal: {
      const double period = shape.period > 0.0 ? shape.period : horizon;
      return workload::RateSchedule::diurnal(
          units::per_second(base_rate),
          units::per_second(base_rate * shape.factor), period,
          shape.peak_time);
    }
    case ArrivalShape::Kind::kFlash:
      return workload::RateSchedule::flash_crowd(
          units::per_second(base_rate), units::per_second(base_rate * shape.factor),
          shape.spike_start, shape.spike_duration, horizon);
  }
  throw Error("build_schedule: unreachable arrival kind");
}

std::vector<sim::FaultEvent> compile_faults(const Scenario& scenario,
                                            const core::ClusterModel& model) {
  std::vector<sim::FaultEvent> events;
  events.reserve(scenario.faults.size());
  for (const auto& f : scenario.faults) {
    int station = -1;
    for (std::size_t i = 0; i < model.num_tiers(); ++i)
      if (model.tiers()[i].name == f.tier) station = static_cast<int>(i);
    if (station < 0)
      throw Error("scenario: fault names unknown tier '" + f.tier + "'");
    events.push_back(sim::FaultEvent{f.time, station, f.kind, f.value});
  }
  return events;
}

std::vector<units::Seconds> compile_sla_thresholds(const core::ClusterModel& model) {
  std::vector<units::Seconds> thresholds(model.num_classes(), units::seconds(0.0));
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const auto& sla = model.classes()[k].sla;
    if (sla.percentile_bounded())
      thresholds[k] = sla.max_percentile_e2e_delay;
    else if (sla.mean_bounded())
      thresholds[k] = 3.0 * sla.max_mean_e2e_delay;
  }
  return thresholds;
}

}  // namespace cpm::online
