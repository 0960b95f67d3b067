// Single-class single-station queueing formulas (M/M/1, M/G/1, M/G/1-PS).
//
// These are the building blocks the priority and network analyses reduce to
// in degenerate cases, and the reference points the unit tests pin the more
// general code against.
#pragma once

#include "cpm/common/distribution.hpp"

namespace cpm::queueing {

/// Steady-state metrics of a single-class station.
struct QueueMetrics {
  double utilization = 0.0;   ///< rho = lambda * E[S] / servers
  double mean_wait = 0.0;     ///< Wq: time in queue, excluding service
  double mean_sojourn = 0.0;  ///< W = Wq + E[S]
  double mean_queue_len = 0.0;   ///< Lq = lambda * Wq  (Little)
  double mean_in_system = 0.0;   ///< L  = lambda * W   (Little)
};

/// M/M/1 with arrival rate `lambda`, service rate `mu`. Throws when
/// unstable (lambda >= mu).
QueueMetrics mm1(double lambda, double mu);

/// M/G/1 via Pollaczek–Khinchine: Wq = lambda E[S^2] / (2 (1 - rho)).
QueueMetrics mg1(double lambda, const Distribution& service);

/// M/G/1 under processor sharing: sojourn E[S]/(1-rho), insensitive to the
/// service law beyond its mean.
QueueMetrics mg1_ps(double lambda, const Distribution& service);

}  // namespace cpm::queueing
