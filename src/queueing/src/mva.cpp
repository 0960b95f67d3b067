#include "cpm/queueing/mva.hpp"

#include <algorithm>

#include "cpm/common/error.hpp"

namespace cpm::queueing {

namespace {

void validate_stations(const std::vector<ClosedStation>& stations) {
  require(!stations.empty(), "mva: need at least one station");
  for (const auto& s : stations)
    if (s.servers < 1)
      throw Error("mva: station '" + s.name + "' needs >= 1 server");
}

// Seidmann transform of one (station, demand) pair: returns the queueing
// demand; the residual delay demand is accumulated into `extra_delay`.
double seidmann_queueing_demand(const ClosedStation& st, double demand,
                                double& extra_delay) {
  if (st.is_delay || st.servers == 1) return demand;
  const double c = static_cast<double>(st.servers);
  extra_delay += demand * (c - 1.0) / c;
  return demand / c;
}

}  // namespace

MvaResult exact_mva(const std::vector<ClosedStation>& stations,
                    const std::vector<double>& demands, int population,
                    double think_time) {
  validate_stations(stations);
  require(demands.size() == stations.size(), "mva: one demand per station");
  require(population >= 0, "mva: population must be >= 0");
  require(think_time >= 0.0, "mva: think time must be >= 0");
  for (double d : demands) require(d >= 0.0, "mva: demands must be >= 0");

  const std::size_t m = stations.size();

  // Apply the Seidmann transform; the extra pure delay joins think time
  // for the recursion and is added back to the response afterwards.
  std::vector<double> dq(m);
  double extra_delay = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    dq[i] = seidmann_queueing_demand(stations[i], demands[i], extra_delay);

  MvaResult result;
  result.queue_len.assign(1, std::vector<double>(m, 0.0));
  result.throughput.assign(1, 0.0);
  result.response_time.assign(1, 0.0);
  result.station_utilization.assign(m, 0.0);

  if (population == 0) return result;

  std::vector<double>& q = result.queue_len[0];
  double x = 0.0;
  double r_total = 0.0;
  for (int n = 1; n <= population; ++n) {
    r_total = extra_delay;
    std::vector<double> r(m);
    for (std::size_t i = 0; i < m; ++i) {
      r[i] = stations[i].is_delay ? dq[i] : dq[i] * (1.0 + q[i]);
      r_total += r[i];
    }
    x = static_cast<double>(n) / (think_time + r_total);
    for (std::size_t i = 0; i < m; ++i) q[i] = x * r[i];
  }

  result.throughput[0] = x;
  result.response_time[0] = r_total;
  for (std::size_t i = 0; i < m; ++i) {
    // Utilisation from the ORIGINAL demand: X D_i / c_i.
    result.station_utilization[i] =
        stations[i].is_delay
            ? 0.0
            : x * demands[i] / static_cast<double>(stations[i].servers);
  }
  return result;
}

double AsymptoticBounds::throughput_bound(int population) const {
  const double heavy = d_max > 0.0 ? 1.0 / d_max : 1e300;
  const double light = knee_population > 0.0
                           ? static_cast<double>(population) / (d_max * knee_population)
                           : 1e300;
  return std::min(light, heavy);
}

double AsymptoticBounds::response_bound(int population, double think_time) const {
  return std::max(d_total, static_cast<double>(population) * d_max - think_time);
}

AsymptoticBounds asymptotic_bounds(const std::vector<ClosedStation>& stations,
                                   const std::vector<double>& demands,
                                   double think_time) {
  validate_stations(stations);
  require(demands.size() == stations.size(), "bounds: one demand per station");
  require(think_time >= 0.0, "bounds: think time must be >= 0");
  AsymptoticBounds b;
  for (std::size_t i = 0; i < stations.size(); ++i) {
    b.d_total += demands[i];
    if (stations[i].is_delay) continue;
    double ignored = 0.0;
    const double dqi = seidmann_queueing_demand(stations[i], demands[i], ignored);
    b.d_max = std::max(b.d_max, dqi);
  }
  b.knee_population = b.d_max > 0.0 ? (b.d_total + think_time) / b.d_max : 0.0;
  return b;
}

}  // namespace cpm::queueing
