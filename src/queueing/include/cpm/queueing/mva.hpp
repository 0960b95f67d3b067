// Closed queueing networks: Mean Value Analysis (MVA).
//
// The open-network model assumes an unbounded customer stream; enterprise
// applications equally face a CLOSED population — N interactive users who
// submit a request, wait for the response, think for Z seconds, repeat.
// This module provides:
//
//   * exact_mva            — the exact single-class MVA recursion for
//                            product-form networks (queueing + delay
//                            stations);
//   * asymptotic_bounds    — operational-analysis bounds: X(N) <=
//                            min(1/D_max, N/(D_total + Z)) and the knee
//                            population N*.
//
// Multi-server stations are handled by the Seidmann transform: a c-server
// station with demand D becomes a single (c-times faster) queueing station
// with demand D/c plus a pure delay of D(c-1)/c — exact at both extremes
// (no queueing, heavy queueing), a few percent in between.
#pragma once

#include <string>
#include <vector>

namespace cpm::queueing {

/// One station of a closed network.
struct ClosedStation {
  std::string name;
  /// Delay (infinite-server) stations never queue — think nodes, network
  /// latencies. Queueing stations are FCFS/PS single- or multi-server.
  bool is_delay = false;
  int servers = 1;
};

struct MvaResult {
  /// Per-class throughput X_k (requests/second).
  std::vector<double> throughput;
  /// Per-class mean response time R_k (excludes think time).
  std::vector<double> response_time;
  /// Per class, per station: mean number of class-k customers present.
  std::vector<std::vector<double>> queue_len;
  /// Per station: total utilisation (busy servers / servers).
  std::vector<double> station_utilization;
};

/// Exact MVA for ONE closed class. `demands[i]` is the total service
/// demand of a request at station i (per visit mean x visit count),
/// expressed at the station's nominal speed. O(N x stations).
MvaResult exact_mva(const std::vector<ClosedStation>& stations,
                    const std::vector<double>& demands, int population,
                    double think_time);

/// Operational-analysis asymptotes for a single class.
struct AsymptoticBounds {
  double d_total = 0.0;     ///< sum of demands
  double d_max = 0.0;       ///< bottleneck demand (after Seidmann transform)
  double knee_population = 0.0;  ///< N* = (D_total + Z) / D_max
  /// Upper bound on X(N): min(N / (D_total + Z), 1 / D_max).
  [[nodiscard]] double throughput_bound(int population) const;
  /// Lower bound on R(N): max(D_total, N * D_max - Z).
  [[nodiscard]] double response_bound(int population, double think_time) const;
};

AsymptoticBounds asymptotic_bounds(const std::vector<ClosedStation>& stations,
                                   const std::vector<double>& demands,
                                   double think_time);

}  // namespace cpm::queueing
