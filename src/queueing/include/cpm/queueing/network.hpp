// Open multi-class queueing-network analysis by station decomposition.
//
// The cluster hosting the enterprise application is modelled as an open
// network: K customer classes (class 0 = highest priority) each follow a
// fixed route — an ordered list of station visits with a per-visit service
// requirement. Stations are multi-server priority queues.
//
// The analysis decomposes the network into independent stations: each
// station sees, per class, a Poisson flow whose rate is the class's external
// rate times its number of visits there, with a two-moment-matched service
// mixture over those visits. Per-class end-to-end delay is the sum of the
// class's per-visit sojourn times. The decomposition is exact for the first
// station on a route and approximate downstream (departures of priority
// queues are not Poisson); experiment E1 quantifies the resulting error
// against simulation.
//
// core::ClusterModel is the network's one description (its tiers and
// classes). This header holds what the analysis derives from it: the
// skeleton, which the routes alone determine (which route steps feed which
// station flows), the per-station flow construction and the assembled
// result type. ClusterModel analyses each station from its own flows (one
// tier unit per station) and assembles NetworkMetrics from those units
// (docs/model.md §2, §4).
#pragma once

#include <vector>

#include "cpm/queueing/priority.hpp"

namespace cpm::queueing {

/// One step of a class's route.
struct Visit {
  int station = 0;          ///< index into the stations vector
  Distribution service = Distribution::exponential(1.0);  ///< service here
};

/// Per-class, per-station analysis results assembled network-wide.
struct NetworkMetrics {
  /// Mean end-to-end sojourn per class (sum of per-visit sojourns).
  std::vector<units::Seconds> e2e_delay;
  /// Variance of the end-to-end sojourn per class, assuming per-visit
  /// sojourns are independent (the same assumption as the decomposition
  /// itself): sum over visits of Var(wait) + Var(service). May be
  /// +infinity when a service third moment is infinite.
  std::vector<units::SecondsSquared> e2e_delay_variance;
  /// Per station, per class: mean delay beyond service (0 when the class
  /// does not visit the station).
  std::vector<std::vector<double>> station_wait;
  /// Per station, per class: utilisation contribution lambda E[S]/c.
  std::vector<std::vector<double>> station_rho;
  /// Per station total utilisation.
  std::vector<double> station_utilization;
  /// Traffic-weighted mean E2E delay: sum_k lambda_k T_k / sum_k lambda_k.
  units::Seconds mean_e2e_delay = units::seconds(0.0);
};

/// What the analysis needs of a network beyond its stations, rates and
/// service laws: per station, which class flows visit it and from which
/// route steps. The routes alone determine it, so changing servers,
/// disciplines, service laws or arrival rates leaves it as it is, and
/// every network with the same routes can share one.
struct NetworkSkeleton {
  /// One class's flow at a station: a single route step, whose service
  /// law the flow keeps, or several, which merge into one flow.
  struct Flow {
    std::size_t cls = 0;     ///< class index (priority)
    std::size_t first = 0;   ///< its first visit among the station's visits
    std::size_t visits = 0;  ///< route steps of the class at the station
  };
  /// One route step seen from its station: the class and the step.
  struct StationVisit {
    std::size_t cls = 0;
    std::size_t step = 0;
  };
  /// One route step seen from its class: the station and the step's index
  /// among the station's visits.
  struct RouteStep {
    std::size_t station = 0;
    std::size_t visit = 0;
  };
  std::vector<std::vector<Flow>> flows;  ///< per station, ordered by class
  /// Per station, the route steps that visit it, by class and then step,
  /// so that each flow's visits are contiguous.
  std::vector<std::vector<StationVisit>> visits;
  std::vector<std::vector<RouteStep>> routes;  ///< per class, per route step
};

/// Builds the skeleton of `stations` stations and one class per entry of
/// `routes`, each its class's route as the station of every step. It checks
/// nothing: there must be at least one station and one class, and every
/// route at least one step, each on a station below `stations`, as
/// ClusterModel::check ensures for a model.
NetworkSkeleton network_skeleton(std::size_t stations,
                                 const std::vector<std::vector<std::size_t>>& routes);

/// Station `s`'s flows, one per entry of skeleton.flows[s], into `out`
/// (reusing it): class k arrives at rates[k] per visit, and laws[v] is
/// the service law of the station's visit v (skeleton.visits[s] order). A
/// flow of several visits merges them into one flow at rates[k] times
/// the visits, with a two-moment-matched mixture law.
void station_flows(const NetworkSkeleton& skeleton, std::size_t s,
                   const std::vector<units::Rate>& rates,
                   const std::vector<Distribution>& laws, std::vector<ClassFlow>& out);

/// The p-th percentile (p in (0,1)) of class `cls`'s end-to-end delay,
/// from a gamma distribution fitted to the analytic mean and variance.
/// Exact when the true E2E delay is exponential (e.g. a single M/M/1);
/// an engineering approximation otherwise, validated by experiment E8.
/// Returns the mean when the variance is zero and +infinity when the
/// variance is infinite.
units::Seconds percentile_e2e_delay(const NetworkMetrics& metrics,
                                    std::size_t cls, double p);

}  // namespace cpm::queueing
