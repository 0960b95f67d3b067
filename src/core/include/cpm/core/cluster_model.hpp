// ClusterModel: the paper's system model as a single value type.
//
// A service provider's cluster hosts one enterprise application as a
// pipeline of tiers; K business-customer classes (0 = highest priority,
// i.e. the customers paying the most) send Poisson request streams that
// traverse per-class routes through the tiers. Each tier is a group of
// identical DVFS-capable servers.
//
// Service demands are specified at the tier's base frequency; evaluating
// the model at an operating point (a frequency per tier) rescales every
// demand by 1/speedup(f) and runs the analytical network + energy models
// of cpm::queueing / cpm::power. The same model compiles to a simulator
// configuration (to_sim_config) so every analytical number can be checked
// against discrete-event simulation — the paper's validation methodology.
//
// The model is the network's one description: its tiers carry the
// servers and disciplines, its classes the rates and routes. Delays, power,
// both per-request energies and the stability verdict are assembled from
// one unit per tier, each tier's station analysed from its own flows over
// the skeleton the model binds from its routes when it is built. Every
// evaluation reads its units through a TierTable, which analyses each tier
// once per distinct (servers, frequency) and counts the points: evaluate()
// through a fresh one, a solver that probes many points through one table
// that also owns the evaluation it writes into.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cpm/common/units.hpp"
#include "cpm/power/energy.hpp"
#include "cpm/power/server_power.hpp"
#include "cpm/queueing/network.hpp"
#include "cpm/sim/simulator.hpp"

namespace cpm::core {

/// Per-class service-level agreement. Unset bounds are +infinity.
/// Percentile bounds follow the SLA practice of this line of work:
/// "95% of gold requests finish within X seconds" — checked against the
/// gamma-fit analytic percentile (queueing::percentile_e2e_delay).
struct Sla {
  units::Seconds max_mean_e2e_delay = units::Seconds::infinity();
  /// Bound on the `percentile`-quantile of E2E delay (default p95).
  units::Seconds max_percentile_e2e_delay = units::Seconds::infinity();
  double percentile = 0.95;

  [[nodiscard]] bool mean_bounded() const {
    return max_mean_e2e_delay != units::Seconds::infinity();
  }
  [[nodiscard]] bool percentile_bounded() const {
    return max_percentile_e2e_delay != units::Seconds::infinity();
  }
  [[nodiscard]] bool bounded() const {
    return mean_bounded() || percentile_bounded();
  }
};

/// One tier of the cluster.
struct Tier {
  std::string name;
  int servers = 1;
  queueing::Discipline discipline = queueing::Discipline::kNonPreemptivePriority;
  power::ServerPower power = power::ServerPower::typical_2011_server();
  /// Cost of provisioning one server of this tier (arbitrary money units);
  /// only the cost optimiser reads it.
  double server_cost = 1.0;
};

/// One step of a class's route: tier index + service demand at f_base.
struct Demand {
  int tier = 0;
  Distribution base_service = Distribution::exponential(1.0);
};

/// One customer class; vector order defines priority (0 = highest).
struct WorkloadClass {
  std::string name;
  units::Rate rate = units::per_second(0.0);
  std::vector<Demand> route;
  Sla sla;
};

/// Full analytic evaluation of an operating point.
struct Evaluation {
  bool stable = false;
  queueing::NetworkMetrics net;    ///< valid only when stable
  power::EnergyMetrics energy;     ///< valid only when stable

  /// Cluster average power, +infinity when unstable.
  [[nodiscard]] units::Watts power() const {
    return stable ? energy.cluster_avg_power : units::Watts::infinity();
  }
  /// Traffic-weighted mean E2E delay, +infinity when unstable.
  [[nodiscard]] units::Seconds mean_delay() const {
    return stable ? net.mean_e2e_delay : units::Seconds::infinity();
  }
};

/// What one tier contributes to an evaluation at an operating point (its
/// server count and frequency): the tier's unit. The tier's station is
/// analysed from its own flows: the unit holds the utilisation, the
/// stability decision and, per flow (NetworkSkeleton::flows order), the
/// mean wait, the load share and the flow's share of the tier's idle
/// power; per visit (NetworkSkeleton::visits order) the mean sojourn, the
/// sojourn's variance and the dynamic energy; and the tier's average power
/// and the idle power every request shares when no flow carries load.
/// Every figure of an evaluation is one of these or a sum of them over
/// tiers or route steps, so an evaluation is assembled from one unit per
/// tier (ClusterModel::assemble). At an unstable station only stable() and
/// utilization() are defined. A unit is a view of the figures a TierTable
/// owns.
class TierUnit {
 public:
  /// The number of figures of a unit whose station has `flows` flows and
  /// `visits` visits.
  static std::size_t size(std::size_t flows, std::size_t visits) {
    return kHeader + 3 * flows + 3 * visits;
  }
  TierUnit(const double* figures, std::size_t flows, std::size_t visits)
      : f_(figures), flows_(flows), visits_(visits) {}

  [[nodiscard]] bool stable() const { return f_[0] != 0.0; }
  /// Offered load per server, sum_k lambda_k E[S_k] / servers.
  [[nodiscard]] double utilization() const { return f_[1]; }
  /// Average power of the tier's servers.
  [[nodiscard]] units::Watts average_power() const { return units::watts(f_[2]); }
  /// The tier's idle power when it is unloaded (no flow carries load),
  /// which every request shares alike; 0 when some flow carries load.
  [[nodiscard]] units::Watts shared_idle_power() const { return units::watts(f_[3]); }
  [[nodiscard]] double wait(std::size_t flow) const { return f_[flow_row(0) + flow]; }
  [[nodiscard]] double rho(std::size_t flow) const { return f_[flow_row(1) + flow]; }
  /// The flow's share of the tier's idle power, by load share.
  [[nodiscard]] units::Watts idle_power(std::size_t flow) const {
    return units::watts(f_[flow_row(2) + flow]);
  }
  [[nodiscard]] double sojourn(std::size_t visit) const { return f_[visit_row(0) + visit]; }
  /// Var(wait) + Var(service) of the visit.
  [[nodiscard]] double variance(std::size_t visit) const { return f_[visit_row(1) + visit]; }
  /// Dynamic energy of the visit.
  [[nodiscard]] units::Joules marginal_energy(std::size_t visit) const {
    return units::joules(f_[visit_row(2) + visit]);
  }

 private:
  friend class ClusterModel;
  friend class TierTable;  // points its views at its units
  // The figures: stable (1 or 0), utilisation, average and shared idle
  // power, then three rows of one figure per flow and three of one per visit.
  static constexpr std::size_t kHeader = 4;
  [[nodiscard]] std::size_t flow_row(std::size_t row) const { return kHeader + row * flows_; }
  [[nodiscard]] std::size_t visit_row(std::size_t row) const {
    return kHeader + 3 * flows_ + row * visits_;
  }

  const double* f_;
  std::size_t flows_;
  std::size_t visits_;
};

/// Whether every station of an operating point is stable, given its units.
bool all_stable(const std::vector<TierUnit>& units);

/// Cluster average power of a stable operating point whose units are
/// `units`, one per tier: their average powers summed in tier order, as
/// ClusterModel::assemble sums them.
units::Watts cluster_power(const std::vector<TierUnit>& units);

/// The buffers computing a tier unit reuses: the service laws of the
/// tier's visits at the unit's frequency, the station's flows and their
/// analysis. Once it has served a tier with as many visits and flows,
/// computing a unit through it allocates nothing.
struct TierBuffers {
  std::vector<Distribution> laws;
  std::vector<queueing::ClassFlow> flows;
  queueing::StationMetrics station;
};

/// A model checks its structure (tiers, servers, rates, routes) once, when
/// it is built, and binds its queueing network's skeleton then: which route
/// steps feed which station flows. The skeleton depends on the routes
/// alone, so copies, which keep them, share it. Evaluating a model at a
/// frequency vector only rescales service laws and runs the analysis.
class ClusterModel {
 public:
  ClusterModel(std::vector<Tier> tiers, std::vector<WorkloadClass> classes);

  [[nodiscard]] const std::vector<Tier>& tiers() const { return tiers_; }
  [[nodiscard]] const std::vector<WorkloadClass>& classes() const { return classes_; }
  [[nodiscard]] std::size_t num_tiers() const { return tiers_.size(); }
  [[nodiscard]] std::size_t num_classes() const { return classes_.size(); }
  [[nodiscard]] units::Rate total_rate() const;

  /// Returns a copy with different per-tier server counts (same order).
  [[nodiscard]] ClusterModel with_servers(const std::vector<int>& servers) const;

  /// Returns a copy with every class's arrival rate scaled by `factor` —
  /// the load-sweep knob of the validation experiments.
  [[nodiscard]] ClusterModel with_rate_scale(double factor) const;

  /// Returns a copy with per-class arrival rates replaced (one per class).
  /// The online controller re-plans against measured rates with this.
  [[nodiscard]] ClusterModel with_rates(const std::vector<units::Rate>& rates) const;

  /// All tiers at their maximum (resp. minimum) DVFS frequency.
  [[nodiscard]] std::vector<double> max_frequencies() const;
  [[nodiscard]] std::vector<double> min_frequencies() const;

  /// The lowest frequency per tier that keeps it stable with a margin
  /// (rho <= 1 - 1e-3), clamped into the DVFS range. Because cluster
  /// power is componentwise increasing in f over the stable region, this
  /// point attains the minimum feasible power — the reference point for
  /// P-D feasibility checks and the energy-optimisation floor. The point
  /// may still be unstable when even f_max cannot carry a tier's load;
  /// callers must check evaluate(f).stable.
  [[nodiscard]] std::vector<double> min_stable_frequencies() const;
  /// The same with `servers` servers per tier: bit for bit what
  /// with_servers(servers).min_stable_frequencies() returns.
  [[nodiscard]] std::vector<double> min_stable_frequencies(
      const std::vector<int>& servers) const;

  /// The queueing network's skeleton, bound from the routes at
  /// construction and shared, read-only, by every copy that keeps them
  /// (plain copies and the with_* copies).
  [[nodiscard]] const queueing::NetworkSkeleton& skeleton() const { return *skeleton_; }

  /// Returns a copy with every tier switched to `discipline` (the
  /// priority-vs-FCFS comparisons of E6/E7 use this).
  [[nodiscard]] ClusterModel with_discipline(queueing::Discipline discipline) const;

  /// Analytic per-class delays, power and energy at an operating point:
  /// every tier's unit at the tier's servers and frequency, assembled when
  /// every station is stable. Returns stable=false (and no metrics) instead
  /// of throwing when some tier saturates — optimisers probe infeasible
  /// points routinely. Throws unless check_frequencies passes. Each call
  /// reads its units through a fresh TierTable.
  [[nodiscard]] Evaluation evaluate(const std::vector<double>& frequencies) const;

  /// Throws unless there is one frequency per tier, each inside its tier's
  /// DVFS range.
  void check_frequencies(const std::vector<double>& frequencies) const;

  /// Tier `tier`'s unit at `servers` (>= 1) servers and `frequency`,
  /// written to `figures` (unit_size(tier) of them) through `buffers`: the
  /// speedup rescales the service law of each of the tier's visits, the
  /// station's utilisation is computed from its flows, the station is
  /// analysed, which decides its stability, and, when stable, its power
  /// and its idle power's shares are computed. The unit depends on nothing
  /// else, so one computed at a model's servers serves its with_servers
  /// copies too. Throws outside the tier's DVFS range.
  TierUnit analyze_tier(std::size_t tier, int servers, units::Hertz frequency,
                        std::span<double> figures, TierBuffers& buffers) const;

  /// The number of figures of tier `tier`'s unit.
  [[nodiscard]] std::size_t unit_size(std::size_t tier) const;

  /// The stable evaluation assembled from `units`, one stable unit per
  /// tier, into `out` (reusing its vectors): per class the sums over its
  /// route steps in route order, cluster power and each class's idle
  /// shares summed over the tiers in tier order, an unloaded tier's shared
  /// by every request with traffic.
  void assemble(const std::vector<TierUnit>& units, Evaluation& out) const;

  /// Cluster average power at `f`, +infinity when unstable: evaluate(f).power()
  /// read off the units without assembling the rest of the point.
  [[nodiscard]] units::Watts power_at(const std::vector<double>& frequencies) const;

  /// Traffic-weighted mean E2E delay at `f`, +infinity when unstable.
  [[nodiscard]] units::Seconds mean_delay_at(
      const std::vector<double>& frequencies) const;

  /// Compiles the model at an operating point into a simulator config for
  /// static (fixed-frequency) runs: to_controlled_sim_config's config with
  /// each visit's service law pre-scaled by its station's speedup and every
  /// station at speed 1.
  [[nodiscard]] sim::SimConfig to_sim_config(const std::vector<double>& frequencies,
                                             double warmup_time, double end_time,
                                             std::uint64_t seed) const;

  /// Variant for ONLINE-managed runs: service distributions stay at their
  /// base (f_base) demands and each station instead carries a runtime
  /// speed multiplier speedup(f_i), so the management hook can retune
  /// frequencies mid-simulation via sim::TierSetting.
  [[nodiscard]] sim::SimConfig to_controlled_sim_config(
      const std::vector<double>& initial_frequencies, double warmup_time,
      double end_time, std::uint64_t seed) const;

  /// Translates a frequency vector into the simulator's runtime tier
  /// settings (speed + dynamic watts), for the management hook.
  [[nodiscard]] std::vector<sim::TierSetting> tier_settings(
      const std::vector<double>& frequencies) const;

 private:
  // Copies that keep the routes: checks tiers and rates, and shares
  // `skeleton`.
  ClusterModel(std::vector<Tier> tiers, std::vector<WorkloadClass> classes,
               std::shared_ptr<const queueing::NetworkSkeleton> skeleton);
  // The one check of the network's structure: tiers and classes present,
  // servers >= 1, costs > 0, rates >= 0 and, except in copies that keep
  // the routes, non-empty routes on known tiers. network_skeleton relies
  // on it and checks nothing.
  void check(bool routes) const;

  std::vector<Tier> tiers_;
  std::vector<WorkloadClass> classes_;
  std::vector<units::Rate> rates_;  // each class's rate, as station_flows reads them
  std::shared_ptr<const queueing::NetworkSkeleton> skeleton_;
};

/// A ready-made 3-tier (web / application / database), 3-class
/// (gold / silver / bronze) enterprise scenario used by examples, tests and
/// benches. `load` in (0, 1) sets the bottleneck utilisation at f_max.
ClusterModel make_enterprise_model(double load = 0.6,
                                   queueing::Discipline discipline =
                                       queueing::Discipline::kNonPreemptivePriority);

}  // namespace cpm::core
