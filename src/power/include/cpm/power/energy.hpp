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
// power: a loaded station's split across its classes by utilisation share,
// an unloaded station's (utilisation 0) charged to every request alike,
// idle power / total rate each. So sum_k lambda_k E_k equals total cluster
// power (full cost recovery) whenever some class carries traffic.
// core::ClusterModel computes each tier's share of them in its tier unit
// and assembles these metrics (docs/model.md §3).
#pragma once

#include <vector>

#include "cpm/common/units.hpp"

namespace cpm::power {

struct EnergyMetrics {
  /// Total cluster average power.
  units::Watts cluster_avg_power = units::watts(0.0);
  /// Per-station average power.
  std::vector<units::Watts> station_avg_power;
  /// Per-class mean end-to-end energy per request, idle shares included.
  std::vector<units::Joules> per_request_energy;
  /// Its dynamic part, drawn while the request holds servers.
  std::vector<units::Joules> marginal_energy;
};

}  // namespace cpm::power
