// Multi-class (priority) analysis of one service station.
//
// A station serves K customer classes indexed 0..K-1, with **class 0 the
// highest priority**. Four scheduling disciplines are supported:
//
//   kFcfs                  all classes share one FCFS queue
//   kNonPreemptivePriority higher classes go first; service is never
//                          interrupted (Cobham's formulas, exact for c = 1)
//   kPreemptiveResume      higher classes preempt; interrupted work resumes
//                          (exact for c = 1)
//   kProcessorSharing      egalitarian PS (exact, insensitive)
//
// Multi-server stations (c > 1) use two well-known approximations that the
// simulation experiments (E1/A3) quantify:
//   * FCFS M/G/c: Lee–Longton, Wq ≈ (1 + SCV)/2 · Wq(M/M/c).
//   * Priority M/G/c: Bondi–Buzen scaling — the ratio of a class's priority
//     delay to the aggregate FCFS delay is taken from the single-server
//     system and applied to the M/G/c FCFS delay. For equal exponential
//     services this reduces to the exact M/M/c priority formula.
#pragma once

#include <vector>

#include "cpm/common/distribution.hpp"
#include "cpm/common/units.hpp"

namespace cpm::queueing {

enum class Discipline {
  kFcfs,
  kNonPreemptivePriority,
  kPreemptiveResume,
  kProcessorSharing,
};

/// Human-readable discipline name ("fcfs", "np-priority", ...).
const char* discipline_name(Discipline d);

/// One class's traffic at a station.
struct ClassFlow {
  units::Rate rate = units::per_second(0.0);  ///< Poisson arrival rate
  Distribution service = Distribution::exponential(1.0);  ///< per-visit service
};

/// Per-class steady-state results of one station.
struct StationMetrics {
  std::vector<double> mean_wait;      ///< delay beyond own service time
  std::vector<double> mean_sojourn;   ///< wait + E[S_k]
  /// Raw second moment of the per-class wait (delay beyond service).
  /// Exact via Takács for single-server FCFS; other disciplines use the
  /// exponential-shape approximation E[W^2] = 2 E[W]^2, whose accuracy the
  /// percentile-validation experiment (E8) quantifies. May be +infinity
  /// when a service third moment is infinite (Pareto shape <= 3).
  std::vector<double> wait_m2;
  std::vector<double> rho;            ///< per-class load share lambda_k E[S_k] / c
  double total_utilization = 0.0;     ///< sum of rho (must be < 1 for stability)
};

/// Total offered load per server: sum_k lambda_k E[S_k] / servers.
double station_utilization(int servers, const std::vector<ClassFlow>& flows);

/// Computes steady-state per-class metrics. Throws cpm::Error when the
/// station is unstable or `servers` < 1.
StationMetrics analyze_station(int servers, Discipline discipline,
                               const std::vector<ClassFlow>& flows);

/// In-place form of analyze_station: writes into `out`, reusing its
/// vectors, so a caller that keeps `out` allocates nothing once it has
/// seen as many classes. Returns false, leaving `out` unspecified, when
/// the station is unstable: some load the formulas compare with a limit
/// (the utilisation, a priority prefix's load, the Bondi–Buzen reference
/// load or an Erlang offered load) reaches it, or a mean wait comes out
/// infinite or negative, as happens to multi-server stations within a few
/// ulps of utilisation 1. Throws cpm::Error when `servers` < 1, `flows` is
/// empty or a rate is negative.
[[nodiscard]] bool analyze_station(int servers, Discipline discipline,
                                   const std::vector<ClassFlow>& flows,
                                   StationMetrics& out);

}  // namespace cpm::queueing
