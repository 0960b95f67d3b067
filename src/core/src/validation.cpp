#include "cpm/core/validation.hpp"

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/core/preconditions.hpp"

namespace cpm::core {

namespace {

ValidationRow make_row(std::string metric, double analytic,
                       const ConfidenceInterval& sim_ci) {
  ValidationRow row;
  row.metric = std::move(metric);
  row.analytic = analytic;
  row.simulated = sim_ci.mean;
  row.ci_half_width = sim_ci.half_width;
  row.error_pct = sim_ci.mean != 0.0
                      ? 100.0 * std::abs(analytic - sim_ci.mean) / sim_ci.mean
                      : 0.0;
  row.within_ci = analytic >= sim_ci.lo() && analytic <= sim_ci.hi();
  return row;
}

}  // namespace

ValidationReport validate_model(const ClusterModel& model,
                                const std::vector<double>& frequencies,
                                const SimSettings& settings) {
  ValidationReport report;
  report.analytic = evaluate_stable(model, frequencies, "validate_model");
  sim::SimConfig cfg = model.to_sim_config(frequencies, settings.warmup_time,
                                           settings.end_time, settings.seed);
  cfg.audit = true;
  sim::ReplicationOptions rep;
  rep.replications = settings.replications;
  report.sim = sim::replicate(cfg, rep);
  const Evaluation& ev = report.analytic;
  const sim::ReplicatedResult& sim = report.sim;

  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    report.rows.push_back(make_row("delay[" + model.classes()[k].name + "]",
                                   ev.net.e2e_delay[k].value(),
                                   sim.classes[k].mean_e2e_delay));
  }
  report.rows.push_back(make_row("delay[mean]", ev.net.mean_e2e_delay.value(),
                                 sim.mean_e2e_delay));
  // Marginal (dynamic-only) energy is what the simulator accounts per
  // request; the idle shares are validated through average power.
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    report.rows.push_back(make_row("energy[" + model.classes()[k].name + "]",
                                   ev.energy.marginal_energy[k].value(),
                                   sim.classes[k].mean_e2e_energy));
  }
  report.rows.push_back(make_row("power[cluster]",
                                 ev.energy.cluster_avg_power.value(),
                                 sim.cluster_avg_power));
  for (std::size_t s = 0; s < model.num_tiers(); ++s) {
    report.rows.push_back(make_row("util[" + model.tiers()[s].name + "]",
                                   ev.net.station_utilization[s],
                                   sim.station_utilization[s]));
  }

  for (const auto& row : report.rows)
    report.max_error_pct = std::max(report.max_error_pct, row.error_pct);
  return report;
}

}  // namespace cpm::core
