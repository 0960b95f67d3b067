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
// Both entry points take the network's skeleton (network_skeleton), which
// binds which route steps feed which station flows; none takes a bare list
// of stations.
#pragma once

#include <string>
#include <vector>

#include "cpm/queueing/priority.hpp"

namespace cpm::queueing {

/// A service station (tier) of the network.
struct NetworkStation {
  int servers = 1;
  Discipline discipline = Discipline::kNonPreemptivePriority;
};

/// One step of a class's route.
struct Visit {
  int station = 0;          ///< index into the stations vector
  Distribution service = Distribution::exponential(1.0);  ///< service here
};

/// A customer class. Priority equals its index in the classes vector
/// (0 = highest) at every priority-scheduled station.
struct CustomerClass {
  std::string name;
  units::Rate rate = units::per_second(0.0);  ///< external Poisson arrivals
  std::vector<Visit> route;                   ///< visited front to back
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
  /// Per class, per route step: mean sojourn of that visit.
  std::vector<std::vector<double>> visit_sojourn;
  /// Per station, per class: mean delay beyond service (0 when the class
  /// does not visit the station).
  std::vector<std::vector<double>> station_wait;
  /// Per station, per class: raw second moment of that delay (see
  /// StationMetrics::wait_m2 for exactness notes).
  std::vector<std::vector<double>> station_wait_m2;
  /// Per station, per class: utilisation contribution lambda E[S]/c.
  std::vector<std::vector<double>> station_rho;
  /// Per station total utilisation.
  std::vector<double> station_utilization;
  /// Traffic-weighted mean E2E delay: sum_k lambda_k T_k / sum_k lambda_k.
  units::Seconds mean_e2e_delay = units::seconds(0.0);
  /// Total external arrival rate.
  units::Rate total_rate = units::per_second(0.0);
};

/// What the analysis needs of a network beyond its rates and service laws:
/// the stations and, per station, which class flows visit it and from
/// which route steps. Rescaling service laws or arrival rates leaves it
/// as it is, so a caller that analyses one network at many service rates
/// builds it once.
struct NetworkSkeleton {
  /// One class's flow at a station: a single route step, whose service
  /// law the flow keeps, or several, which merge into one flow.
  struct Flow {
    std::size_t cls = 0;     ///< class index (priority)
    std::size_t step = 0;    ///< the class's first route step at the station
    std::size_t visits = 0;  ///< route steps of the class at the station
  };
  std::vector<NetworkStation> stations;
  std::vector<std::vector<Flow>> flows;  ///< per station, ordered by class
  std::size_t classes = 0;               ///< number of classes
};

/// Builds the skeleton. It checks nothing: the description must have at
/// least one station and one class, every station >= 1 server, and every
/// route at least one step, each on a known station, as ClusterModel::check
/// ensures for a model.
NetworkSkeleton network_skeleton(std::vector<NetworkStation> stations,
                                 const std::vector<CustomerClass>& classes);

/// Per-station utilisation (length = skeleton.stations.size()) of the
/// classes, which must have the routes `skeleton` was built from.
std::vector<double> network_utilizations(const NetworkSkeleton& skeleton,
                                         const std::vector<CustomerClass>& classes);

/// Buffers the in-place analyze_network reuses from call to call. One
/// workspace serves networks of any shape; once it has analysed a network
/// with as many stations and classes, a call allocates nothing.
struct NetworkWorkspace {
  /// One station's merged per-class flows and their analysis.
  struct Station {
    std::vector<ClassFlow> flows;  ///< the skeleton's flows at this station
    StationMetrics metrics;        ///< analyze_station of `flows`
  };
  /// Grows to the largest network seen; never shrinks.
  std::vector<Station> stations;
};

/// The analysis: builds each station's flows in `ws` from the
/// skeleton and the classes' rates and service laws, decides every
/// station's stability from them, analyses the stable network and writes
/// the result into `out`, reusing its vectors. `classes` must have the
/// routes `skeleton` was built from, and only their rates and service laws
/// may differ; beyond their number, nothing of them is checked. Returns
/// false, leaving `out` untouched, when some station is unstable (see the
/// in-place analyze_station).
[[nodiscard]] bool analyze_network(const NetworkSkeleton& skeleton,
                                   const std::vector<CustomerClass>& classes,
                                   NetworkMetrics& out, NetworkWorkspace& ws);

/// The p-th percentile (p in (0,1)) of class `cls`'s end-to-end delay,
/// from a gamma distribution fitted to the analytic mean and variance.
/// Exact when the true E2E delay is exponential (e.g. a single M/M/1);
/// an engineering approximation otherwise, validated by experiment E8.
/// Returns the mean when the variance is zero and +infinity when the
/// variance is infinite.
units::Seconds percentile_e2e_delay(const NetworkMetrics& metrics,
                                    std::size_t cls, double p);

}  // namespace cpm::queueing
