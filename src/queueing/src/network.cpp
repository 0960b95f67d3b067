#include "cpm/queueing/network.hpp"

#include <algorithm>
#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/common/math.hpp"

namespace cpm::queueing {

NetworkSkeleton network_skeleton(std::vector<NetworkStation> stations,
                                 const std::vector<CustomerClass>& classes) {
  NetworkSkeleton sk;
  sk.flows.resize(stations.size());
  sk.stations = std::move(stations);
  sk.classes = classes.size();
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const auto& route = classes[k].route;
    for (std::size_t j = 0; j < route.size(); ++j) {
      auto& flows = sk.flows[static_cast<std::size_t>(route[j].station)];
      if (flows.empty() || flows.back().cls != k)
        flows.push_back(NetworkSkeleton::Flow{k, j, 0});
      ++flows.back().visits;
    }
  }
  return sk;
}

namespace {

// Station `station`'s flows, one per entry of its skeleton `flows`, at the
// classes' current rates and service laws.
void flows_at_station(std::size_t station,
                      const std::vector<NetworkSkeleton::Flow>& flows,
                      const std::vector<CustomerClass>& classes,
                      std::vector<ClassFlow>& out) {
  out.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const NetworkSkeleton::Flow& flow = flows[i];
    const CustomerClass& cls = classes[flow.cls];
    if (flow.visits == 1) {
      // Single visit: keep the exact service law (preserves the third
      // moment, which the Takács wait-m2 formula consumes).
      out[i] = ClassFlow{cls.rate, cls.route[flow.step].service};
      continue;
    }
    // Multiple visits merge into one flow with a two-moment-matched
    // mixture proxy.
    double visits = 0.0;
    double sum_mean = 0.0;
    double sum_m2 = 0.0;
    for (std::size_t j = flow.step; j < cls.route.size(); ++j) {
      const Visit& v = cls.route[j];
      if (static_cast<std::size_t>(v.station) != station) continue;
      visits += 1.0;
      sum_mean += v.service.mean();
      sum_m2 += v.service.second_moment();
    }
    const double mix_mean = sum_mean / visits;
    const double mix_m2 = sum_m2 / visits;
    const double var = mix_m2 - mix_mean * mix_mean;
    const double scv =
        mix_mean > 0.0 ? std::max(0.0, var) / (mix_mean * mix_mean) : 0.0;
    // Visits that all take no time merge into a point mass at 0.
    out[i] = ClassFlow{cls.rate * visits,
                       mix_mean == 0.0
                           ? Distribution::deterministic(0.0)
                           : Distribution::from_mean_scv(std::max(mix_mean, 1e-300), scv)};
  }
}

}  // namespace

std::vector<double> network_utilizations(const NetworkSkeleton& sk,
                                         const std::vector<CustomerClass>& classes) {
  require(classes.size() == sk.classes,
          "network_utilizations: classes do not match the skeleton");
  std::vector<double> util(sk.stations.size(), 0.0);
  std::vector<ClassFlow> flows;
  for (std::size_t s = 0; s < sk.stations.size(); ++s) {
    flows_at_station(s, sk.flows[s], classes, flows);
    if (!flows.empty()) util[s] = station_utilization(sk.stations[s].servers, flows);
  }
  return util;
}

bool analyze_network(const NetworkSkeleton& sk, const std::vector<CustomerClass>& classes,
                     NetworkMetrics& m, NetworkWorkspace& ws) {
  require(classes.size() == sk.classes, "analyze_network: classes do not match the skeleton");
  const std::size_t n_stations = sk.stations.size();
  const std::size_t n_classes = classes.size();
  if (ws.stations.size() < n_stations) ws.stations.resize(n_stations);

  // Build every station's flows once. A station loaded to 1 or beyond
  // makes the network unstable before any station is analysed.
  for (std::size_t s = 0; s < n_stations; ++s) {
    std::vector<ClassFlow>& flows = ws.stations[s].flows;
    flows_at_station(s, sk.flows[s], classes, flows);
    if (!flows.empty() && !station_stable(sk.stations[s].servers, flows)) return false;
  }
  // Analyse each station from the same flows; within rounding of
  // utilisation 1 the analysis can still find a station unstable.
  for (std::size_t s = 0; s < n_stations; ++s) {
    NetworkWorkspace::Station& st = ws.stations[s];
    if (!st.flows.empty() &&
        !analyze_station(sk.stations[s].servers, sk.stations[s].discipline, st.flows,
                         st.metrics))
      return false;
  }

  m.e2e_delay.assign(n_classes, units::seconds(0.0));
  m.e2e_delay_variance.assign(n_classes, units::SecondsSquared(0.0));
  m.visit_sojourn.resize(n_classes);
  m.station_wait.resize(n_stations);
  m.station_wait_m2.resize(n_stations);
  m.station_rho.resize(n_stations);
  m.station_utilization.assign(n_stations, 0.0);
  m.total_rate = units::per_second(0.0);

  // Scatter each station's per-class results.
  for (std::size_t s = 0; s < n_stations; ++s) {
    m.station_wait[s].assign(n_classes, 0.0);
    m.station_wait_m2[s].assign(n_classes, 0.0);
    m.station_rho[s].assign(n_classes, 0.0);
    const std::vector<NetworkSkeleton::Flow>& flows = sk.flows[s];
    if (flows.empty()) continue;
    const StationMetrics& sm = ws.stations[s].metrics;
    m.station_utilization[s] = sm.total_utilization;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      m.station_wait[s][flows[i].cls] = sm.mean_wait[i];
      m.station_wait_m2[s][flows[i].cls] = sm.wait_m2[i];
      m.station_rho[s][flows[i].cls] = sm.rho[i];
    }
  }

  // Per-class end-to-end delay: each visit contributes the class's station
  // wait plus the visit's own mean service time.
  double weighted = 0.0;
  for (std::size_t k = 0; k < n_classes; ++k) {
    const auto& cls = classes[k];
    std::vector<double>& sojourns = m.visit_sojourn[k];
    sojourns.clear();
    sojourns.reserve(cls.route.size());
    double total = 0.0;
    double variance = 0.0;
    for (const auto& v : cls.route) {
      const auto s = static_cast<std::size_t>(v.station);
      const double wait = m.station_wait[s][k];
      const double sojourn = wait + v.service.mean();
      sojourns.push_back(sojourn);
      total += sojourn;
      // Independence across visits: variances add. Wait and own service
      // are independent in all modelled disciplines except PS/preemption,
      // where this is part of the documented approximation.
      variance += (m.station_wait_m2[s][k] - wait * wait) + v.service.variance();
    }
    m.e2e_delay[k] = units::seconds(total);
    m.e2e_delay_variance[k] = units::SecondsSquared(variance);
    m.total_rate += cls.rate;
    weighted += cls.rate.value() * total;
  }
  m.mean_e2e_delay = m.total_rate > units::per_second(0.0)
                         ? units::seconds(weighted / m.total_rate.value())
                         : units::seconds(0.0);
  return true;
}

units::Seconds percentile_e2e_delay(const NetworkMetrics& metrics,
                                    std::size_t cls, double p) {
  require(cls < metrics.e2e_delay.size(), "percentile_e2e_delay: bad class");
  require(p > 0.0 && p < 1.0, "percentile_e2e_delay: p in (0,1)");
  const double mean = metrics.e2e_delay[cls].value();
  const double var = metrics.e2e_delay_variance[cls].value();
  if (!(var > 0.0))
    return units::seconds(mean);  // deterministic (or degenerate) delay
  if (std::isinf(var)) return units::seconds(var);
  // Two-moment gamma fit: shape = mean^2/var, scale = var/mean. An
  // exponential E2E delay (single M/M/1) gives shape 1 and the exact
  // quantile.
  const double shape = mean * mean / var;
  const double scale = var / mean;
  return units::seconds(gamma_quantile(p, shape, scale));
}

}  // namespace cpm::queueing
