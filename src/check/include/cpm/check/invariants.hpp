// Invariant oracles: machine-checked structural laws of queueing theory
// and energy accounting that every ClusterModel evaluation and every
// simulation run must satisfy, independent of any approximation quality.
//
// The paper's validation methodology compares analytic against simulated
// numbers scenario by scenario; these oracles complement that with laws
// that hold EXACTLY (up to arithmetic / sampling noise), so refactors of
// the analytic engine or the simulator can be regression-checked without
// hand-picked expectations:
//
//   * utilisation law      rho_i = sum_k lambda_ik E[S_ik(f)] / n_i
//   * Kleinrock M/G/1 conservation law  sum_k rho_k W_k = rho W0 / (1-rho)
//   * work conservation    the rho-weighted aggregate wait is invariant
//                          under FCFS <-> non-preemptive priority swaps
//   * energy balance       sum_k lambda_k E_k = cluster average power
//                          (proportional idle attribution), and station
//                          powers sum to the cluster total
//   * Little's law         time-average queue length = sum_k lambda_k Wq_k
//                          on simulator output (two independent estimators)
//   * flow conservation    arrivals = completions + blocked + in-system,
//                          exactly, per class, on simulator output
//
// Each oracle returns a CheckResult with the worst relative residual it
// saw and where, judged against one fixed tolerance: 1e-9 (roundoff) for
// the analytic laws, 0 for flow conservation and 0.08 for the statistical
// laws on simulator output.
// A Report aggregates them (worst violation per invariant across many
// models — the differential harness's summary format).
#pragma once

#include <string>
#include <vector>

#include "cpm/core/cluster_model.hpp"
#include "cpm/sim/simulator.hpp"

namespace cpm::check {

/// Outcome of one invariant check on one subject (model / run).
struct CheckResult {
  std::string invariant;          ///< stable id, e.g. "utilization-law"
  bool passed = true;
  double worst_violation = 0.0;   ///< largest relative residual observed
  double tolerance = 0.0;         ///< the threshold it was judged against
  std::string detail;             ///< where the worst residual occurred
};

/// |a - b| / max(|a|, |b|, floor): a symmetric relative residual that
/// judges quantities near zero on absolute error.
double residual(double a, double b, double floor = 1e-12);

/// Folds residual `res`, observed at `site`, into `r`: keeps the worst
/// and fails `r` when `res` exceeds its tolerance.
void observe(CheckResult& r, double res, const std::string& site);

/// Aggregation of checks, possibly across many subjects: merging keeps the
/// worst violation per invariant so a 200-model sweep reports one row each.
class Report {
 public:
  void add(CheckResult result);
  void merge(const Report& other);

  [[nodiscard]] bool all_passed() const;
  [[nodiscard]] double worst_violation() const;
  [[nodiscard]] const CheckResult* find(const std::string& invariant) const;
  [[nodiscard]] const std::vector<CheckResult>& checks() const { return checks_; }

 private:
  std::vector<CheckResult> checks_;
};

// ---- analytic-side oracles (model + evaluation) ---------------------------

/// Utilisation law: recomputes rho_i = sum_k lambda_ik E[S_ik]/speedup(f_i)
/// / n_i straight from the model parameters (core::tier_base_loads, which
/// shares no code with the analysis) and compares against the evaluation's
/// station utilisations. Near-exact: arithmetic noise only.
CheckResult check_utilization_law(const core::ClusterModel& model,
                                  const std::vector<double>& frequencies,
                                  const core::Evaluation& ev);

/// Kleinrock's M/G/1 conservation law at every single-server FCFS or
/// non-preemptive-priority tier: sum_k rho_k W_k == rho/(1-rho) * W0 with
/// W0 = sum_k lambda_k E[S_k^2]/2. Exact for those disciplines; tiers with
/// several servers, PS or preemption are skipped (the law does not apply
/// in that form).
CheckResult check_conservation_law(const core::ClusterModel& model,
                                   const std::vector<double>& frequencies,
                                   const core::Evaluation& ev);

/// Work conservation across scheduling swaps: at each single-server tier
/// the rho-weighted aggregate wait must be identical when the whole model
/// is re-evaluated under FCFS vs non-preemptive priority (priorities
/// reshuffle delay between classes, never create or destroy it).
CheckResult check_work_conservation(const core::ClusterModel& model,
                                    const std::vector<double>& frequencies);

/// Same law on two precomputed evaluations (fcfs = the model under FCFS,
/// priority = the model under non-preemptive priority). Lets callers reuse
/// evaluations they already have — and tests inject tampered ones.
CheckResult check_work_conservation(const core::ClusterModel& model,
                                    const core::Evaluation& fcfs,
                                    const core::Evaluation& priority);

/// Energy accounting balance: with proportional idle attribution,
/// sum_k lambda_k E_k must recover the cluster average power exactly, and
/// per-station powers must sum to the cluster total.
CheckResult check_energy_balance(const core::ClusterModel& model,
                                 const core::Evaluation& ev);

/// Runs every analytic oracle on one operating point. Throws cpm::Error
/// when the model is unstable at `frequencies` (no steady state to check).
Report check_analytic(const core::ClusterModel& model,
                      const std::vector<double>& frequencies);

// ---- simulation-side oracles (config + run output) ------------------------

/// Little's law on simulator output: per station, the time-average waiting
/// queue length (measured by integration) must match sum_k lambda_ik Wq_ik
/// (measured from per-departure samples) — two independent estimators of
/// the same quantity. Finite-run edge effects make this statistical.
CheckResult check_little_law(const sim::SimConfig& config,
                             const sim::SimResult& result);

/// Flow conservation, exact: per class, counted arrivals == completions +
/// blocked + still-in-system at the horizon. Requires the counters the
/// simulator always maintains (SimClassResult::arrived / in_system_at_end).
CheckResult check_flow_conservation(const sim::SimConfig& config,
                                    const sim::SimResult& result);

/// Energy balance on simulator output: class throughput times mean
/// marginal energy per request, summed, must match the measured dynamic
/// power (cluster power minus idle floor). Statistical (edge effects).
CheckResult check_energy_balance_sim(const sim::SimConfig& config,
                                     const sim::SimResult& result);

/// Runs every simulation-side oracle on one finished run.
Report check_simulation(const sim::SimConfig& config,
                        const sim::SimResult& result);

}  // namespace cpm::check
