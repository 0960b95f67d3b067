// Cluster-level energy metrics of an operating point.
//
// Two quantities matter to the paper's optimisation problems:
//   * cluster average power (watts) — the constraint/objective of P-D and
//     P-E; computed exactly from per-station utilisations;
//   * per-class end-to-end energy per request (joules) — "average energy
//     consumption for multiple class customers".
//
// Idle power has no unambiguous owner, so an evaluation yields two
// per-request figures: marginal_energy, the dynamic energy drawn while the
// request holds servers (its causal footprint, which the simulator
// measures), and per_request_energy, which adds each station's full idle
// power split across classes by utilisation share, so that
// sum_k lambda_k E_k equals total cluster power (full cost recovery).
// core::ClusterModel computes each tier's share of them in its tier unit
// and assembles these metrics (docs/model.md §3).
#pragma once

#include <vector>

#include "cpm/common/units.hpp"

namespace cpm::power {

struct EnergyMetrics {
  /// Total cluster average power.
  units::Watts cluster_avg_power = units::watts(0.0);
  /// Per-station dynamic (busy minus idle) power of one server at the
  /// tier's frequency.
  std::vector<units::Watts> station_dynamic_power;
  /// Per-station average power.
  std::vector<units::Watts> station_avg_power;
  /// Per-class mean end-to-end energy per request, idle shares included.
  std::vector<units::Joules> per_request_energy;
  /// Its dynamic part, drawn while the request holds servers.
  std::vector<units::Joules> marginal_energy;
  /// Traffic-weighted mean of per_request_energy.
  units::Joules mean_per_request_energy = units::joules(0.0);
};

}  // namespace cpm::power
