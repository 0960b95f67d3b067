// Cluster-level energy metrics derived from a network analysis.
//
// Two quantities matter to the paper's optimisation problems:
//   * cluster average power (watts) — the constraint/objective of P-D and
//     P-E; computed exactly from per-station utilisations;
//   * per-class end-to-end energy per request (joules) — "average energy
//     consumption for multiple class customers".
//
// Idle power has no unambiguous owner, so one pass yields two per-request
// figures: marginal_energy, the dynamic energy drawn while the request
// holds servers (its causal footprint, which the simulator measures), and
// per_request_energy, which adds each station's full idle power split
// across classes by utilisation share, so that sum_k lambda_k E_k equals
// total cluster power (full cost recovery).
#pragma once

#include <vector>

#include "cpm/power/server_power.hpp"
#include "cpm/queueing/network.hpp"

namespace cpm::power {

/// Operating point of one tier: its power curve, chosen frequency and
/// server count (must match the NetworkStation it describes).
struct TierPower {
  ServerPower server = ServerPower::typical_2011_server();
  units::Hertz frequency = units::hertz(1.0);
  int servers = 1;
};

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

/// Computes energy metrics for an analysed network into `out`, reusing its
/// vectors. `tiers[i]` describes station i; `net` must come from
/// analyze_network on the same inputs (class service times already
/// expressed at the tier frequencies). Each tier's dynamic power is
/// computed once and serves its average power and every visit's marginal
/// energy.
void compute_energy(const std::vector<TierPower>& tiers,
                    const std::vector<queueing::CustomerClass>& classes,
                    const queueing::NetworkMetrics& net, EnergyMetrics& out);

}  // namespace cpm::power
