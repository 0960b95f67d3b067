#include "cpm/power/energy.hpp"

#include "cpm/common/error.hpp"

namespace cpm::power {

void compute_energy(const std::vector<TierPower>& tiers,
                    const std::vector<queueing::CustomerClass>& classes,
                    const queueing::NetworkMetrics& net, EnergyMetrics& em) {
  const std::size_t n_stations = net.station_utilization.size();
  const std::size_t n_classes = classes.size();
  require(tiers.size() == n_stations, "compute_energy: tiers/stations size mismatch");
  for (const auto& t : tiers)
    require(t.servers >= 1, "compute_energy: tier needs >= 1 server");

  em.cluster_avg_power = units::watts(0.0);
  em.station_dynamic_power.resize(n_stations);
  em.station_avg_power.resize(n_stations);
  em.per_request_energy.assign(n_classes, units::joules(0.0));

  for (std::size_t s = 0; s < n_stations; ++s) {
    const auto& t = tiers[s];
    em.station_dynamic_power[s] = t.server.dynamic_power(t.frequency);
    const units::Watts per_server =
        t.server.average_power(em.station_dynamic_power[s], net.station_utilization[s]);
    em.station_avg_power[s] = per_server * static_cast<double>(t.servers);
    em.cluster_avg_power += em.station_avg_power[s];
  }

  // Dynamic energy: each visit of class k to station s burns
  // dynamic_power(f_s) * E[S] joules while holding a server.
  for (std::size_t k = 0; k < n_classes; ++k) {
    for (const auto& v : classes[k].route) {
      const auto s = static_cast<std::size_t>(v.station);
      em.per_request_energy[k] += tiers[s].server.marginal_energy_per_request(
          em.station_dynamic_power[s], units::seconds(v.service.mean()));
    }
  }

  // That is the marginal energy; the idle shares come on top of it.
  em.marginal_energy = em.per_request_energy;

  // Split each station's idle power across classes by utilisation share;
  // a class's per-request share is its power share divided by its rate.
  for (std::size_t s = 0; s < n_stations; ++s) {
    const units::Watts idle_total =
        tiers[s].server.idle_power() * static_cast<double>(tiers[s].servers);
    double rho_sum = 0.0;
    for (std::size_t k = 0; k < n_classes; ++k) rho_sum += net.station_rho[s][k];
    if (rho_sum <= 0.0) continue;  // nobody to attribute to
    for (std::size_t k = 0; k < n_classes; ++k) {
      if (classes[k].rate <= units::per_second(0.0)) continue;
      const double share = net.station_rho[s][k] / rho_sum;
      // W / (jobs/s) = J per job: the class's idle-power share spread
      // over its request stream.
      em.per_request_energy[k] +=
          units::joules((idle_total * share).value() / classes[k].rate.value());
    }
  }

  double weighted = 0.0;
  double total_rate = 0.0;
  for (std::size_t k = 0; k < n_classes; ++k) {
    weighted += classes[k].rate.value() * em.per_request_energy[k].value();
    total_rate += classes[k].rate.value();
  }
  em.mean_per_request_energy =
      total_rate > 0.0 ? units::joules(weighted / total_rate) : units::joules(0.0);
}

}  // namespace cpm::power
