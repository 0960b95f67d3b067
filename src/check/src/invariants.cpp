#include "cpm/check/invariants.hpp"

#include <algorithm>
#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/core/preconditions.hpp"

namespace cpm::check {

namespace {

// The analytic oracles' tolerance: their laws hold up to roundoff.
constexpr double kAnalyticTolerance = 1e-9;
// The simulation-side statistical oracles' tolerance: finite-run edge
// effects at the repo's standard validation effort.
constexpr double kSimulationTolerance = 0.08;

}  // namespace

double residual(double a, double b, double floor) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), floor});
}

void observe(CheckResult& r, double res, const std::string& site) {
  if (res > r.worst_violation) {
    r.worst_violation = res;
    r.detail = site;
  }
  if (res > r.tolerance) r.passed = false;
}

void Report::add(CheckResult result) { checks_.push_back(std::move(result)); }

void Report::merge(const Report& other) {
  for (const auto& incoming : other.checks_) {
    auto it = std::find_if(checks_.begin(), checks_.end(),
                           [&](const CheckResult& c) {
                             return c.invariant == incoming.invariant;
                           });
    if (it == checks_.end()) {
      checks_.push_back(incoming);
      continue;
    }
    it->passed = it->passed && incoming.passed;
    if (incoming.worst_violation > it->worst_violation) {
      it->worst_violation = incoming.worst_violation;
      it->detail = incoming.detail;
      it->tolerance = incoming.tolerance;
    }
  }
}

bool Report::all_passed() const {
  for (const auto& c : checks_)
    if (!c.passed) return false;
  return true;
}

double Report::worst_violation() const {
  double w = 0.0;
  for (const auto& c : checks_) w = std::max(w, c.worst_violation);
  return w;
}

const CheckResult* Report::find(const std::string& invariant) const {
  for (const auto& c : checks_)
    if (c.invariant == invariant) return &c;
  return nullptr;
}

// ---- analytic-side oracles -------------------------------------------------

CheckResult check_utilization_law(const core::ClusterModel& model,
                                  const std::vector<double>& frequencies,
                                  const core::Evaluation& ev) {
  require(ev.stable, "check_utilization_law: evaluation must be stable");
  CheckResult r{"utilization-law", true, 0.0, kAnalyticTolerance, ""};
  const auto& tiers = model.tiers();
  const std::vector<double> load = core::tier_base_loads(model);
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const double rho = load[i] / tiers[i].power.speedup(units::hertz(frequencies[i]));
    observe(r, residual(rho, ev.net.station_utilization[i]),
            "tier '" + tiers[i].name + "'");
  }
  return r;
}

CheckResult check_conservation_law(const core::ClusterModel& model,
                                   const std::vector<double>& frequencies,
                                   const core::Evaluation& ev) {
  require(ev.stable, "check_conservation_law: evaluation must be stable");
  CheckResult r{"conservation-law", true, 0.0, kAnalyticTolerance, ""};
  model.check_frequencies(frequencies);
  const auto& classes = model.classes();
  const auto& tiers = model.tiers();
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const bool applies =
        tiers[i].servers == 1 &&
        (tiers[i].discipline == queueing::Discipline::kFcfs ||
         tiers[i].discipline == queueing::Discipline::kNonPreemptivePriority);
    if (!applies) continue;

    // Rebuild the per-class pooled flows the decomposition analyses:
    // lambda_ik = rate_k * visits, E[S^2]_ik = mean of visit second moments,
    // each visit's base demand rescaled by the tier's speedup.
    const double speedup = tiers[i].power.speedup(units::hertz(frequencies[i]));
    double w0 = 0.0;      // sum_k lambda_ik E[S_ik^2] / 2
    double lhs = 0.0;     // sum_k rho_ik W_ik
    for (std::size_t k = 0; k < classes.size(); ++k) {
      double visits = 0.0;
      double sum_m2 = 0.0;
      for (const auto& d : classes[k].route) {
        if (static_cast<std::size_t>(d.tier) != i) continue;
        visits += 1.0;
        sum_m2 += d.base_service.scaled_to_mean(d.base_service.mean() / speedup).second_moment();
      }
      if (visits == 0.0) continue;
      w0 += classes[k].rate.value() * visits * (sum_m2 / visits) / 2.0;
      lhs += ev.net.station_rho[i][k] * ev.net.station_wait[i][k];
    }
    const double rho = ev.net.station_utilization[i];
    if (rho <= 0.0) continue;
    const double rhs = rho * w0 / (1.0 - rho);
    observe(r, residual(lhs, rhs), "tier '" + tiers[i].name + "'");
  }
  return r;
}

CheckResult check_work_conservation(const core::ClusterModel& model,
                                    const std::vector<double>& frequencies) {
  const auto fcfs = model.with_discipline(queueing::Discipline::kFcfs)
                        .evaluate(frequencies);
  const auto prio =
      model.with_discipline(queueing::Discipline::kNonPreemptivePriority)
          .evaluate(frequencies);
  return check_work_conservation(model, fcfs, prio);
}

CheckResult check_work_conservation(const core::ClusterModel& model,
                                    const core::Evaluation& fcfs,
                                    const core::Evaluation& prio) {
  CheckResult r{"work-conservation", true, 0.0, kAnalyticTolerance, ""};
  require(fcfs.stable && prio.stable,
          "check_work_conservation: model must be stable at f");
  for (std::size_t i = 0; i < model.num_tiers(); ++i) {
    if (model.tiers()[i].servers != 1) continue;  // exact only for c = 1
    double agg_fcfs = 0.0;
    double agg_prio = 0.0;
    for (std::size_t k = 0; k < model.num_classes(); ++k) {
      agg_fcfs += fcfs.net.station_rho[i][k] * fcfs.net.station_wait[i][k];
      agg_prio += prio.net.station_rho[i][k] * prio.net.station_wait[i][k];
    }
    observe(r, residual(agg_fcfs, agg_prio),
            "tier '" + model.tiers()[i].name + "'");
  }
  return r;
}

CheckResult check_energy_balance(const core::ClusterModel& model,
                                 const core::Evaluation& ev) {
  require(ev.stable, "check_energy_balance: evaluation must be stable");
  CheckResult r{"energy-balance", true, 0.0, kAnalyticTolerance, ""};

  // Full cost recovery: proportional idle attribution makes the per-class
  // energies a partition of the cluster's entire power draw.
  double recovered = 0.0;
  for (std::size_t k = 0; k < model.num_classes(); ++k)
    recovered +=
        model.classes()[k].rate.value() * ev.energy.per_request_energy[k].value();
  observe(r, residual(recovered, ev.energy.cluster_avg_power.value()),
          "sum_k lambda_k E_k vs cluster power");

  double station_sum = 0.0;
  for (units::Watts p : ev.energy.station_avg_power) station_sum += p.value();
  observe(r, residual(station_sum, ev.energy.cluster_avg_power.value()),
          "sum of station powers vs cluster power");
  return r;
}

Report check_analytic(const core::ClusterModel& model,
                      const std::vector<double>& frequencies) {
  const auto ev = core::evaluate_stable(model, frequencies, "check_analytic");
  Report report;
  report.add(check_utilization_law(model, frequencies, ev));
  report.add(check_conservation_law(model, frequencies, ev));
  report.add(check_work_conservation(model, frequencies));
  report.add(check_energy_balance(model, ev));
  return report;
}

// ---- simulation-side oracles -----------------------------------------------

CheckResult check_little_law(const sim::SimConfig& config,
                             const sim::SimResult& result) {
  CheckResult r{"little-law", true, 0.0, kSimulationTolerance, ""};
  if (result.measured_time <= 0.0) return r;
  for (std::size_t s = 0; s < config.stations.size(); ++s) {
    // PS stations keep every job "in service"; the waiting-queue signal is
    // identically zero there and Little's law in this form does not apply.
    if (config.stations[s].discipline == queueing::Discipline::kProcessorSharing)
      continue;
    double lq_from_little = 0.0;  // sum_k lambda_ks * Wq_ks
    for (std::size_t k = 0; k < config.classes.size(); ++k) {
      double visits = 0.0;
      for (const auto& v : config.classes[k].route)
        if (static_cast<std::size_t>(v.station) == s) visits += 1.0;
      if (visits == 0.0) continue;
      const double throughput =
          static_cast<double>(result.classes[k].completed) / result.measured_time;
      lq_from_little += throughput * visits * result.stations[s].mean_wait[k];
    }
    const double lq_measured = result.stations[s].mean_queue_len;
    observe(r, residual(lq_measured, lq_from_little, 0.1),
            "station '" + config.stations[s].name + "'");
  }
  return r;
}

CheckResult check_flow_conservation(const sim::SimConfig& config,
                                    const sim::SimResult& result) {
  CheckResult r{"flow-conservation", true, 0.0, 0.0, ""};
  for (std::size_t k = 0; k < config.classes.size(); ++k) {
    const auto& cr = result.classes[k];
    const std::uint64_t accounted = cr.completed + cr.blocked + cr.in_system_at_end;
    const double diff = std::abs(static_cast<double>(cr.arrived) -
                                 static_cast<double>(accounted));
    observe(r, diff, "class '" + config.classes[k].name + "'");
  }
  return r;
}

CheckResult check_energy_balance_sim(const sim::SimConfig& config,
                                     const sim::SimResult& result) {
  CheckResult r{"energy-balance-sim", true, 0.0, kSimulationTolerance, ""};
  if (result.measured_time <= 0.0) return r;
  double recovered = 0.0;  // sum_k throughput_k * marginal joules per request
  for (std::size_t k = 0; k < config.classes.size(); ++k)
    recovered += static_cast<double>(result.classes[k].completed) /
                 result.measured_time * result.classes[k].mean_e2e_energy.value();
  double dynamic_power = 0.0;  // measured power minus the constant idle floor
  for (std::size_t s = 0; s < config.stations.size(); ++s)
    dynamic_power += result.stations[s].avg_power.value() -
                     config.stations[s].idle_watts.value() *
                         static_cast<double>(config.stations[s].servers);
  observe(r, residual(recovered, dynamic_power, 1e-9),
          "class energy flux vs dynamic power");
  return r;
}

Report check_simulation(const sim::SimConfig& config,
                        const sim::SimResult& result) {
  Report report;
  report.add(check_little_law(config, result));
  report.add(check_flow_conservation(config, result));
  report.add(check_energy_balance_sim(config, result));
  return report;
}

}  // namespace cpm::check
