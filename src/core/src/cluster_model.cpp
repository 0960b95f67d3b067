#include "cpm/core/cluster_model.hpp"

#include <algorithm>
#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/core/preconditions.hpp"

namespace cpm::core {

namespace {

std::vector<units::Rate> class_rates(const std::vector<WorkloadClass>& classes) {
  std::vector<units::Rate> rates;
  rates.reserve(classes.size());
  for (const auto& c : classes) rates.push_back(c.rate);
  return rates;
}

}  // namespace

ClusterModel::ClusterModel(std::vector<Tier> tiers, std::vector<WorkloadClass> classes)
    : tiers_(std::move(tiers)), classes_(std::move(classes)), rates_(class_rates(classes_)) {
  check(/*routes=*/true);
  std::vector<queueing::NetworkStation> stations;
  stations.reserve(tiers_.size());
  for (const auto& t : tiers_)
    stations.push_back(queueing::NetworkStation{t.servers, t.discipline});
  // The skeleton reads only the routes' stations, so the base laws serve.
  std::vector<queueing::CustomerClass> routes(classes_.size());
  for (std::size_t k = 0; k < classes_.size(); ++k) {
    routes[k].rate = classes_[k].rate;
    for (const auto& d : classes_[k].route)
      routes[k].route.push_back(queueing::Visit{d.tier, d.base_service});
  }
  skeleton_ = queueing::network_skeleton(std::move(stations), routes);
}

ClusterModel::ClusterModel(std::vector<Tier> tiers, std::vector<WorkloadClass> classes,
                           queueing::NetworkSkeleton skeleton)
    : tiers_(std::move(tiers)),
      classes_(std::move(classes)),
      rates_(class_rates(classes_)),
      skeleton_(std::move(skeleton)) {
  check(/*routes=*/false);
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    skeleton_.stations[i].servers = tiers_[i].servers;
    skeleton_.stations[i].discipline = tiers_[i].discipline;
  }
}

void ClusterModel::check(bool routes) const {
  require(!tiers_.empty(), "ClusterModel: need at least one tier");
  require(!classes_.empty(), "ClusterModel: need at least one class");
  for (const auto& t : tiers_) {
    if (t.servers < 1)
      throw Error("ClusterModel: tier '" + t.name + "' needs >= 1 server");
    if (!(t.server_cost > 0.0))
      throw Error("ClusterModel: tier '" + t.name + "' needs positive cost");
  }
  for (const auto& c : classes_) {
    if (!(c.rate >= units::per_second(0.0)))
      throw Error("ClusterModel: class '" + c.name + "' has negative rate");
    if (!routes) continue;
    if (c.route.empty())
      throw Error("ClusterModel: class '" + c.name + "' has empty route");
    for (const auto& d : c.route)
      if (d.tier < 0 || static_cast<std::size_t>(d.tier) >= tiers_.size())
        throw Error("ClusterModel: class '" + c.name +
                    "' routes to unknown tier");
  }
}

units::Rate ClusterModel::total_rate() const {
  units::Rate r = units::per_second(0.0);
  for (const auto& c : classes_) r += c.rate;
  return r;
}

ClusterModel ClusterModel::with_servers(const std::vector<int>& servers) const {
  require(servers.size() == tiers_.size(), "with_servers: size mismatch");
  std::vector<Tier> tiers = tiers_;
  for (std::size_t i = 0; i < tiers.size(); ++i) tiers[i].servers = servers[i];
  return ClusterModel(std::move(tiers), classes_, skeleton_);
}

ClusterModel ClusterModel::with_rate_scale(double factor) const {
  require(factor >= 0.0, "with_rate_scale: factor must be >= 0");
  std::vector<WorkloadClass> classes = classes_;
  for (auto& c : classes) c.rate *= factor;
  return ClusterModel(tiers_, std::move(classes), skeleton_);
}

ClusterModel ClusterModel::with_rates(const std::vector<units::Rate>& rates) const {
  require(rates.size() == classes_.size(), "with_rates: one rate per class");
  std::vector<WorkloadClass> classes = classes_;
  for (std::size_t k = 0; k < classes.size(); ++k) classes[k].rate = rates[k];
  return ClusterModel(tiers_, std::move(classes), skeleton_);
}

std::vector<double> ClusterModel::max_frequencies() const {
  std::vector<double> f(tiers_.size());
  for (std::size_t i = 0; i < tiers_.size(); ++i)
    f[i] = tiers_[i].power.dvfs().f_max.value();
  return f;
}

std::vector<double> ClusterModel::min_frequencies() const {
  std::vector<double> f(tiers_.size());
  for (std::size_t i = 0; i < tiers_.size(); ++i)
    f[i] = tiers_[i].power.dvfs().f_min.value();
  return f;
}

std::vector<double> ClusterModel::min_stable_frequencies() const {
  std::vector<int> servers;
  for (const auto& t : tiers_) servers.push_back(t.servers);
  return min_stable_frequencies(servers);
}

std::vector<double> ClusterModel::min_stable_frequencies(const std::vector<int>& servers) const {
  // Per-tier offered load per server at f_base; tier i is stable at
  // frequency f iff load_i * f_base / f < 1.
  const std::vector<double> load = tier_base_loads(*this, servers);
  constexpr double kMargin = 1e-3;

  std::vector<double> f(tiers_.size());
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    const auto& dvfs = tiers_[i].power.dvfs();
    const double f_crit = load[i] * dvfs.f_base.value() / (1.0 - kMargin);
    f[i] = std::clamp(f_crit, dvfs.f_min.value(), dvfs.f_max.value());
  }
  return f;
}

void ClusterModel::check_frequencies(const std::vector<double>& frequencies) const {
  require(frequencies.size() == tiers_.size(),
          "ClusterModel: one frequency per tier required");
  for (std::size_t i = 0; i < tiers_.size(); ++i)
    tiers_[i].power.check_frequency(units::hertz(frequencies[i]));
}

std::vector<queueing::CustomerClass> ClusterModel::network_classes(
    const std::vector<double>& frequencies) const {
  require(frequencies.size() == tiers_.size(),
          "ClusterModel: one frequency per tier required");
  std::vector<double> speedups(tiers_.size());
  for (std::size_t i = 0; i < tiers_.size(); ++i)
    speedups[i] = tiers_[i].power.speedup(units::hertz(frequencies[i]));
  std::vector<queueing::CustomerClass> out(classes_.size());
  for (std::size_t k = 0; k < classes_.size(); ++k) {
    const auto& c = classes_[k];
    out[k].name = c.name;
    out[k].rate = c.rate;
    for (const Demand& d : c.route)
      out[k].route.push_back(queueing::Visit{
          d.tier, d.base_service.scaled_to_mean(
                      d.base_service.mean() / speedups[static_cast<std::size_t>(d.tier)])});
  }
  return out;
}

std::size_t ClusterModel::unit_size(std::size_t tier) const {
  return TierUnit::size(skeleton_.flows[tier].size(), skeleton_.visits[tier].size());
}

TierUnit ClusterModel::analyze_tier(std::size_t tier, int servers, units::Hertz frequency,
                                    std::span<double> figures, TierBuffers& buffers) const {
  const Tier& t = tiers_[tier];
  const std::vector<queueing::NetworkSkeleton::Flow>& flows = skeleton_.flows[tier];
  const std::vector<queueing::NetworkSkeleton::StationVisit>& visits = skeleton_.visits[tier];
  require(figures.size() == unit_size(tier), "analyze_tier: wrong number of figures");
  const TierUnit unit(figures.data(), flows.size(), visits.size());

  // Every visit's service law, rescaled from f_base to the frequency.
  const double speedup = t.power.speedup(frequency);
  buffers.laws.clear();
  for (const auto& v : visits) {
    const Distribution& base = classes_[v.cls].route[v.step].base_service;
    buffers.laws.push_back(base.scaled_to_mean(base.mean() / speedup));
  }

  // The station from its own flows: unstable when loaded to 1 or beyond,
  // or, within rounding of utilisation 1, when its analysis diverges.
  queueing::station_flows(skeleton_, tier, rates_, buffers.laws, buffers.flows);
  const bool loaded = !buffers.flows.empty();
  const bool stable =
      !loaded || queueing::analyze_station(servers, t.discipline, buffers.flows, buffers.station);
  figures[0] = stable ? 1.0 : 0.0;
  if (!stable) return unit;
  const queueing::StationMetrics& sm = buffers.station;
  const double utilization = loaded ? sm.total_utilization : 0.0;
  figures[1] = utilization;

  // Each visit contributes the class's station wait plus the visit's own
  // mean service time. Independence across visits: variances add. Wait
  // and own service are independent in all modelled disciplines except
  // PS/preemption, where this is part of the documented approximation.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double wait = sm.mean_wait[i];
    figures[unit.flow_row(0) + i] = wait;
    figures[unit.flow_row(1) + i] = sm.wait_m2[i];
    figures[unit.flow_row(2) + i] = sm.rho[i];
    for (std::size_t v = flows[i].first; v < flows[i].first + flows[i].visits; ++v) {
      const Distribution& law = buffers.laws[v];
      figures[unit.visit_row(0) + v] = wait + law.mean();
      figures[unit.visit_row(1) + v] = (sm.wait_m2[i] - wait * wait) + law.variance();
    }
  }

  // Power: each visit burns dynamic_power(f) * E[S] joules while holding a
  // server, and the tier's idle power is split across its flows by
  // utilisation share (none when no flow carries load).
  const units::Watts dynamic = t.power.dynamic_power(frequency);
  figures[2] = dynamic.value();
  figures[3] = (t.power.average_power(dynamic, utilization) * static_cast<double>(servers)).value();
  for (std::size_t v = 0; v < visits.size(); ++v)
    figures[unit.visit_row(2) + v] =
        t.power.marginal_energy_per_request(dynamic, units::seconds(buffers.laws[v].mean()))
            .value();
  const units::Watts idle = t.power.idle_power() * static_cast<double>(servers);
  double rho_sum = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i) rho_sum += unit.rho(i);
  for (std::size_t i = 0; i < flows.size(); ++i)
    figures[unit.flow_row(3) + i] = rho_sum > 0.0 ? (idle * (unit.rho(i) / rho_sum)).value() : 0.0;
  return unit;
}

units::Watts cluster_power(const std::vector<TierUnit>& units) {
  units::Watts power = units::watts(0.0);
  for (const TierUnit& u : units) power += u.average_power();
  return power;
}

void ClusterModel::assemble(const std::vector<TierUnit>& units, Evaluation& out) const {
  const std::size_t n_tiers = tiers_.size();
  const std::size_t n_classes = classes_.size();
  require(units.size() == n_tiers, "assemble: one unit per tier required");
  out.stable = true;
  queueing::NetworkMetrics& m = out.net;
  power::EnergyMetrics& em = out.energy;

  // Each station's per-class figures, zero for classes that do not visit.
  m.station_wait.resize(n_tiers);
  m.station_wait_m2.resize(n_tiers);
  m.station_rho.resize(n_tiers);
  m.station_utilization.resize(n_tiers);
  em.station_dynamic_power.resize(n_tiers);
  em.station_avg_power.resize(n_tiers);
  em.cluster_avg_power = cluster_power(units);
  for (std::size_t s = 0; s < n_tiers; ++s) {
    const TierUnit& u = units[s];
    m.station_wait[s].assign(n_classes, 0.0);
    m.station_wait_m2[s].assign(n_classes, 0.0);
    m.station_rho[s].assign(n_classes, 0.0);
    m.station_utilization[s] = u.utilization();
    const std::vector<queueing::NetworkSkeleton::Flow>& flows = skeleton_.flows[s];
    for (std::size_t i = 0; i < flows.size(); ++i) {
      m.station_wait[s][flows[i].cls] = u.wait(i);
      m.station_wait_m2[s][flows[i].cls] = u.wait_m2(i);
      m.station_rho[s][flows[i].cls] = u.rho(i);
    }
    em.station_dynamic_power[s] = u.dynamic_power();
    em.station_avg_power[s] = u.average_power();
  }

  // Per class, its route's sums: delay, variance and dynamic energy.
  m.e2e_delay.resize(n_classes);
  m.e2e_delay_variance.resize(n_classes);
  m.visit_sojourn.resize(n_classes);
  em.per_request_energy.resize(n_classes);
  m.total_rate = units::per_second(0.0);
  double weighted = 0.0;
  for (std::size_t k = 0; k < n_classes; ++k) {
    const std::vector<queueing::NetworkSkeleton::RouteStep>& route = skeleton_.routes[k];
    std::vector<double>& sojourns = m.visit_sojourn[k];
    sojourns.resize(route.size());
    double total = 0.0;
    double variance = 0.0;
    units::Joules energy = units::joules(0.0);
    for (std::size_t j = 0; j < route.size(); ++j) {
      const TierUnit& u = units[route[j].station];
      sojourns[j] = u.sojourn(route[j].visit);
      total += sojourns[j];
      variance += u.variance(route[j].visit);
      energy += u.marginal_energy(route[j].visit);
    }
    m.e2e_delay[k] = units::seconds(total);
    m.e2e_delay_variance[k] = units::SecondsSquared(variance);
    em.per_request_energy[k] = energy;
    m.total_rate += rates_[k];
    weighted += rates_[k].value() * total;
  }
  m.mean_e2e_delay = m.total_rate > units::per_second(0.0)
                         ? units::seconds(weighted / m.total_rate.value())
                         : units::seconds(0.0);

  // That is the marginal energy; each station's idle shares come on top,
  // spread over the class's request stream (W / (jobs/s) = J per job).
  em.marginal_energy = em.per_request_energy;
  for (std::size_t s = 0; s < n_tiers; ++s) {
    const std::vector<queueing::NetworkSkeleton::Flow>& flows = skeleton_.flows[s];
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const units::Rate rate = rates_[flows[i].cls];
      if (rate > units::per_second(0.0))
        em.per_request_energy[flows[i].cls] +=
            units::joules(units[s].idle_power(i).value() / rate.value());
    }
  }
  double energy_weighted = 0.0;
  double total_rate = 0.0;
  for (std::size_t k = 0; k < n_classes; ++k) {
    energy_weighted += rates_[k].value() * em.per_request_energy[k].value();
    total_rate += rates_[k].value();
  }
  em.mean_per_request_energy =
      total_rate > 0.0 ? units::joules(energy_weighted / total_rate) : units::joules(0.0);
}

ClusterModel ClusterModel::with_discipline(queueing::Discipline discipline) const {
  std::vector<Tier> tiers = tiers_;
  for (auto& t : tiers) t.discipline = discipline;
  return ClusterModel(std::move(tiers), classes_, skeleton_);
}

Evaluation ClusterModel::evaluate(const std::vector<double>& frequencies) const {
  Evaluation ev;
  EvaluationWorkspace ws;
  evaluate(frequencies, ev, ws);
  return ev;
}

const std::vector<TierUnit>& ClusterModel::units_at(const std::vector<double>& frequencies,
                                                     EvaluationWorkspace& ws) const {
  check_frequencies(frequencies);
  ws.figures.resize(tiers_.size());
  ws.units.clear();
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    ws.figures[i].resize(unit_size(i));
    ws.units.push_back(analyze_tier(i, tiers_[i].servers, units::hertz(frequencies[i]),
                                    ws.figures[i], ws.buffers));
  }
  return ws.units;
}

bool all_stable(const std::vector<TierUnit>& units) {
  return std::all_of(units.begin(), units.end(), [](const TierUnit& u) { return u.stable(); });
}

void ClusterModel::evaluate(const std::vector<double>& frequencies, Evaluation& out,
                            EvaluationWorkspace& ws) const {
  const std::vector<TierUnit>& units = units_at(frequencies, ws);
  if (all_stable(units))
    assemble(units, out);
  else
    out.stable = false;
}

units::Watts ClusterModel::power_at(const std::vector<double>& frequencies) const {
  EvaluationWorkspace ws;
  const std::vector<TierUnit>& units = units_at(frequencies, ws);
  return all_stable(units) ? cluster_power(units) : units::Watts::infinity();
}

units::Seconds ClusterModel::mean_delay_at(
    const std::vector<double>& frequencies) const {
  return evaluate(frequencies).mean_delay();
}

sim::SimConfig ClusterModel::to_sim_config(const std::vector<double>& frequencies,
                                           double warmup_time, double end_time,
                                           std::uint64_t seed) const {
  check_frequencies(frequencies);
  sim::SimConfig cfg;
  cfg.warmup_time = warmup_time;
  cfg.end_time = end_time;
  cfg.seed = seed;

  cfg.stations.reserve(tiers_.size());
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    const auto& t = tiers_[i];
    cfg.stations.push_back(sim::SimStation{
        t.name, t.servers, t.discipline, t.power.idle_power(),
        t.power.dynamic_power(units::hertz(frequencies[i]))});
  }

  const auto classes = network_classes(frequencies);
  cfg.classes.reserve(classes.size());
  for (const auto& c : classes)
    cfg.classes.push_back(sim::SimClass{c.name, c.rate, c.route, std::nullopt});
  return cfg;
}

std::vector<sim::TierSetting> ClusterModel::tier_settings(
    const std::vector<double>& frequencies) const {
  check_frequencies(frequencies);
  std::vector<sim::TierSetting> settings(tiers_.size());
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    settings[i].speed = tiers_[i].power.speedup(units::hertz(frequencies[i]));
    settings[i].dynamic_watts =
        tiers_[i].power.dynamic_power(units::hertz(frequencies[i]));
  }
  return settings;
}

sim::SimConfig ClusterModel::to_controlled_sim_config(
    const std::vector<double>& initial_frequencies, double warmup_time,
    double end_time, std::uint64_t seed) const {
  const auto settings = tier_settings(initial_frequencies);
  sim::SimConfig cfg;
  cfg.warmup_time = warmup_time;
  cfg.end_time = end_time;
  cfg.seed = seed;

  cfg.stations.reserve(tiers_.size());
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    const auto& t = tiers_[i];
    cfg.stations.push_back(sim::SimStation{t.name, t.servers, t.discipline,
                                           t.power.idle_power(),
                                           settings[i].dynamic_watts,
                                           settings[i].speed});
  }

  cfg.classes.reserve(classes_.size());
  for (const auto& c : classes_) {
    sim::SimClass sc;
    sc.name = c.name;
    sc.rate = c.rate;
    sc.route.reserve(c.route.size());
    for (const auto& d : c.route)
      sc.route.push_back(queueing::Visit{d.tier, d.base_service});
    cfg.classes.push_back(std::move(sc));
  }
  return cfg;
}

ClusterModel make_enterprise_model(double load, queueing::Discipline discipline) {
  require(load > 0.0 && load < 1.0, "make_enterprise_model: load in (0,1)");

  const power::ServerPower server = power::ServerPower::typical_2011_server();

  std::vector<Tier> tiers = {
      Tier{"web", 2, discipline, server, /*server_cost=*/1.0},
      Tier{"app", 1, discipline, server, /*server_cost=*/1.5},
      Tier{"db", 1, discipline, server, /*server_cost=*/2.5},
  };

  // Demands at f_base (seconds). The database is the bottleneck; per-class
  // traffic mix is 20% gold / 30% silver / 50% bronze.
  const double mean_db_demand = 0.2 * 0.020 + 0.3 * 0.030 + 0.5 * 0.035;
  const double total_rate = load / mean_db_demand;  // sets rho_db = load

  auto route = [&](double web, double app, double db,
                   double db_scv) -> std::vector<Demand> {
    return {Demand{0, Distribution::exponential(web)},
            Demand{1, Distribution::exponential(app)},
            Demand{2, Distribution::from_mean_scv(db, db_scv)}};
  };

  std::vector<WorkloadClass> classes = {
      WorkloadClass{"gold", units::per_second(0.2 * total_rate),
                    route(0.020, 0.015, 0.020, 1.0), Sla{units::seconds(0.25)}},
      WorkloadClass{"silver", units::per_second(0.3 * total_rate),
                    route(0.025, 0.020, 0.030, 1.0), Sla{units::seconds(0.60)}},
      WorkloadClass{"bronze", units::per_second(0.5 * total_rate),
                    route(0.030, 0.022, 0.035, 2.0), Sla{units::seconds(2.00)}},
  };

  return ClusterModel(std::move(tiers), std::move(classes));
}

}  // namespace cpm::core
