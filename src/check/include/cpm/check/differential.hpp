// Differential verification: two independent implementations of the same
// stochastic model (analytic decomposition vs discrete-event simulation)
// and exact special-case reductions between independent analytic code
// paths. Disagreement beyond the documented envelope means a bug in one
// side — the workhorse regression gate for every future perf/refactor PR.
#pragma once

#include "cpm/check/generator.hpp"
#include "cpm/check/invariants.hpp"
#include "cpm/core/validation.hpp"

namespace cpm::check {

struct CrossValidateOptions {
  /// Simulation effort for the differential run. The defaults are the
  /// repo's standard validation settings (8 replications of 500 s).
  core::SimSettings sim;
  /// Agreement envelopes (relative, with a small absolute floor): power
  /// and utilisation depend on no queueing approximation, delays carry the
  /// decomposition error quantified by experiment E1.
  double power_tolerance = 0.03;  // relative envelope // conv-ok: UNIT-2
  double utilization_tolerance = 0.06;
  double delay_tolerance = 0.25;  // relative envelope // conv-ok: UNIT-2
};

/// Analytic-vs-simulation differential on one operating point, plus every
/// simulation-side invariant oracle on the run's output. The simulation
/// runs with the simulator's internal audit hooks on. Reported
/// invariants: "diff-delay", "diff-power", "diff-utilization" and the
/// check_simulation set. Throws cpm::Error "[CPM-L001] ..." (see
/// core::evaluate_stable) when the model is unstable at `frequencies`.
Report cross_validate(const core::ClusterModel& model,
                      const std::vector<double>& frequencies,
                      const CrossValidateOptions& options = {});

/// Analytic-vs-analytic special-case reductions over a fixed parameter
/// grid, each pinning one general code path to an independent exact
/// formula it must collapse to:
///   "reduction-ggc-mmc"          G/G/c at arrival SCV 1 with exponential
///                                service == M/M/c (Erlang-C path)
///   "reduction-gg1-mg1"          G/G/1 at arrival SCV 1 == M/G/1 (P-K)
///   "reduction-priority-fcfs"    one class: every priority discipline ==
///                                FCFS at that station
///   "reduction-ps-insensitivity" M/G/1-PS sojourn depends on the service
///                                law only through its mean
/// All residuals are arithmetic-exact identities; tolerance is roundoff.
Report check_reductions(double tolerance = 1e-9);

/// The full oracle battery over `count` generated models: analytic oracles
/// on every model (at f_max), and the sim differential on every
/// `sim_every`-th model (0 = never; simulation is ~1000x the cost of the
/// analytic side). Returns the worst violation per invariant across the
/// sweep. Deterministic in `seed`.
Report sweep_random_models(std::uint64_t seed, int count,
                           const GeneratorOptions& generator = {},
                           int sim_every = 0,
                           const CrossValidateOptions& options = {});

}  // namespace cpm::check
