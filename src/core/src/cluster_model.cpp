#include "cpm/core/cluster_model.hpp"

#include <algorithm>
#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/core/preconditions.hpp"

namespace cpm::core {

ClusterModel::ClusterModel(std::vector<Tier> tiers, std::vector<WorkloadClass> classes)
    : tiers_(std::move(tiers)), classes_(std::move(classes)) {
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
    : tiers_(std::move(tiers)), classes_(std::move(classes)), skeleton_(std::move(skeleton)) {
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
  // Per-tier offered load per server at f_base; tier i is stable at
  // frequency f iff load_i * f_base / f < 1.
  const std::vector<double> load = tier_base_loads(*this);
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

void ClusterModel::scale_classes(const std::vector<double>& frequencies,
                                 std::vector<double>& speedups,
                                 std::vector<queueing::CustomerClass>& out) const {
  require(frequencies.size() == tiers_.size(),
          "ClusterModel: one frequency per tier required");
  speedups.resize(tiers_.size());
  for (std::size_t i = 0; i < tiers_.size(); ++i)
    speedups[i] = tiers_[i].power.speedup(units::hertz(frequencies[i]));
  out.resize(classes_.size());
  for (std::size_t k = 0; k < classes_.size(); ++k) {
    const auto& c = classes_[k];
    queueing::CustomerClass& qc = out[k];
    qc.rate = c.rate;
    qc.route.resize(c.route.size());
    for (std::size_t j = 0; j < c.route.size(); ++j) {
      const Demand& d = c.route[j];
      queueing::Visit& v = qc.route[j];
      v.station = d.tier;
      v.service = d.base_service.scaled_to_mean(
          d.base_service.mean() / speedups[static_cast<std::size_t>(d.tier)]);
    }
  }
}

std::vector<queueing::CustomerClass> ClusterModel::network_classes(
    const std::vector<double>& frequencies) const {
  std::vector<double> speedups;
  std::vector<queueing::CustomerClass> classes;
  scale_classes(frequencies, speedups, classes);
  for (std::size_t k = 0; k < classes.size(); ++k) classes[k].name = classes_[k].name;
  return classes;
}

void ClusterModel::tier_power(const std::vector<double>& frequencies,
                              std::vector<power::TierPower>& out) const {
  out.resize(tiers_.size());
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    out[i].server = tiers_[i].power;
    out[i].frequency = units::hertz(frequencies[i]);
    out[i].servers = tiers_[i].servers;
  }
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

void ClusterModel::evaluate(const std::vector<double>& frequencies, Evaluation& out,
                            EvaluationWorkspace& ws) const {
  scale_classes(frequencies, ws.speedups, ws.classes);
  out.stable = queueing::analyze_network(skeleton_, ws.classes, out.net, ws.network);
  if (!out.stable) return;
  tier_power(frequencies, ws.tiers);
  power::compute_energy(ws.tiers, ws.classes, out.net, out.energy);
}

units::Watts ClusterModel::power_at(const std::vector<double>& frequencies) const {
  return evaluate(frequencies).power();
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
