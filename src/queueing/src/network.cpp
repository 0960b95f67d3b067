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
  sk.visits.resize(stations.size());
  sk.routes.resize(classes.size());
  sk.stations = std::move(stations);
  sk.classes = classes.size();
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const auto& route = classes[k].route;
    for (std::size_t j = 0; j < route.size(); ++j) {
      const auto s = static_cast<std::size_t>(route[j].station);
      auto& flows = sk.flows[s];
      auto& visits = sk.visits[s];
      if (flows.empty() || flows.back().cls != k)
        flows.push_back(NetworkSkeleton::Flow{k, visits.size(), 0});
      ++flows.back().visits;
      sk.routes[k].push_back(NetworkSkeleton::RouteStep{s, visits.size()});
      visits.push_back(NetworkSkeleton::StationVisit{k, j});
    }
  }
  return sk;
}

void station_flows(const NetworkSkeleton& sk, std::size_t s,
                   const std::vector<units::Rate>& rates,
                   const std::vector<Distribution>& laws, std::vector<ClassFlow>& out) {
  const std::vector<NetworkSkeleton::Flow>& flows = sk.flows[s];
  out.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const NetworkSkeleton::Flow& flow = flows[i];
    const units::Rate rate = rates[flow.cls];
    if (flow.visits == 1) {
      // Single visit: keep the exact service law (preserves the third
      // moment, which the Takács wait-m2 formula consumes).
      out[i] = ClassFlow{rate, laws[flow.first]};
      continue;
    }
    // Multiple visits merge into one flow with a two-moment-matched
    // mixture proxy.
    double visits = 0.0;
    double sum_mean = 0.0;
    double sum_m2 = 0.0;
    for (std::size_t v = flow.first; v < flow.first + flow.visits; ++v) {
      visits += 1.0;
      sum_mean += laws[v].mean();
      sum_m2 += laws[v].second_moment();
    }
    const double mix_mean = sum_mean / visits;
    const double mix_m2 = sum_m2 / visits;
    const double var = mix_m2 - mix_mean * mix_mean;
    const double scv =
        mix_mean > 0.0 ? std::max(0.0, var) / (mix_mean * mix_mean) : 0.0;
    // Visits that all take no time merge into a point mass at 0.
    out[i] = ClassFlow{rate * visits,
                       mix_mean == 0.0
                           ? Distribution::deterministic(0.0)
                           : Distribution::from_mean_scv(std::max(mix_mean, 1e-300), scv)};
  }
}

std::vector<double> network_utilizations(const NetworkSkeleton& sk,
                                         const std::vector<CustomerClass>& classes) {
  require(classes.size() == sk.classes,
          "network_utilizations: classes do not match the skeleton");
  std::vector<units::Rate> rates;
  for (const CustomerClass& c : classes) rates.push_back(c.rate);
  std::vector<double> util(sk.stations.size(), 0.0);
  std::vector<Distribution> laws;
  std::vector<ClassFlow> flows;
  for (std::size_t s = 0; s < sk.stations.size(); ++s) {
    laws.clear();
    for (const NetworkSkeleton::StationVisit& v : sk.visits[s])
      laws.push_back(classes[v.cls].route[v.step].service);
    station_flows(sk, s, rates, laws, flows);
    if (!flows.empty()) util[s] = station_utilization(sk.stations[s].servers, flows);
  }
  return util;
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
