// Differential verification: two independent implementations of the same
// stochastic model (analytic decomposition vs discrete-event simulation)
// and exact special-case reductions between independent analytic code
// paths. Disagreement beyond the documented envelope means a bug in one
// side — the workhorse regression gate for every future perf/refactor PR.
// The analytic-vs-simulation run is core::validate_model's; this layer
// judges its report.
#pragma once

#include "cpm/check/generator.hpp"
#include "cpm/check/invariants.hpp"
#include "cpm/core/validation.hpp"

namespace cpm::check {

/// Analytic-vs-simulation differential on one operating point: judges
/// core::validate_model's report under `settings` (by default the repo's
/// standard validation effort, 8 replications of 500 s), then runs one
/// audited simulation for every simulation-side invariant oracle. The
/// agreement envelopes are relative, with a small absolute floor: 3% on
/// power and 6% on utilisation, which depend on no queueing approximation,
/// and 25% on delays, which carry the decomposition error experiment E1
/// measures. Reported invariants: "diff-delay", "diff-power",
/// "diff-utilization" and the check_simulation set. Throws cpm::Error
/// "validate_model: [CPM-L001] ..." (see core::evaluate_stable) when the
/// model is unstable at `frequencies`.
Report cross_validate(const core::ClusterModel& model,
                      const std::vector<double>& frequencies,
                      const core::SimSettings& settings = {});

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
/// All residuals are arithmetic-exact identities, judged at 1e-9.
Report check_reductions();

/// The full oracle battery over `count` generated models: analytic oracles
/// on every model (at f_max), and the sim differential on every
/// `sim_every`-th model (0 = never; simulation is ~1000x the cost of the
/// analytic side), the i-th under `settings` with its seed advanced by i.
/// Returns the worst violation per invariant across the sweep.
/// Deterministic in `seed`.
Report sweep_random_models(std::uint64_t seed, int count,
                           const GeneratorOptions& generator = {},
                           int sim_every = 0,
                           const core::SimSettings& settings = {});

}  // namespace cpm::check
