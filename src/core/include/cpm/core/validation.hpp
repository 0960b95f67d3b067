// Analytic-vs-simulation validation harness.
//
// The paper's headline claim is that the analytical delay/energy model is
// "efficient and accurate" against simulation. This harness runs both sides
// on the same ClusterModel operating point and reports, per metric, the
// analytic value, the simulated mean with its confidence interval, and the
// relative error — the rows of experiments E1/E2. It is the one
// analytic-vs-simulation run: check::cross_validate and the validation
// experiments (E1, E2, E7, E8, A3) read its report.
#pragma once

#include <string>
#include <vector>

#include "cpm/core/cluster_model.hpp"
#include "cpm/sim/replication.hpp"

namespace cpm::core {

struct SimSettings {
  double warmup_time = 50.0;
  double end_time = 550.0;
  int replications = 8;
  std::uint64_t seed = 20110516;  ///< default: the paper's publication date
};

/// One compared metric.
struct ValidationRow {
  std::string metric;
  double analytic = 0.0;
  double simulated = 0.0;
  double ci_half_width = 0.0;
  /// |analytic - simulated| / simulated (percent).
  double error_pct = 0.0;
  /// True when the analytic value lies inside the simulation CI.
  bool within_ci = false;
};

struct ValidationReport {
  std::vector<ValidationRow> rows;
  double max_error_pct = 0.0;
  /// The two sides the rows compare, for callers needing more: the
  /// model's evaluation and the replicated simulation output.
  Evaluation analytic;
  sim::ReplicatedResult sim;
};

/// Compares per-class E2E delay, traffic-weighted mean delay, per-class
/// marginal E2E energy, cluster average power and per-tier utilisation.
/// The replications run with the simulator's audit on, which throws on a
/// broken run and changes no result. Throws cpm::Error "validate_model:
/// [CPM-L001] ..." (evaluate_stable) when the operating point is
/// analytically unstable (there is no steady state to validate).
ValidationReport validate_model(const ClusterModel& model,
                                const std::vector<double>& frequencies,
                                const SimSettings& settings = {});

}  // namespace cpm::core
