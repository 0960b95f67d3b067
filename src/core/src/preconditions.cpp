#include "cpm/core/preconditions.hpp"

#include <algorithm>
#include <charconv>

#include "cpm/common/error.hpp"
#include "cpm/common/table.hpp"
#include "cpm/queueing/network.hpp"

namespace cpm::core {

std::vector<double> tier_base_loads(const ClusterModel& model) {
  std::vector<int> servers;
  for (const auto& t : model.tiers()) servers.push_back(t.servers);
  return tier_base_loads(model, servers);
}

std::vector<double> tier_base_loads(const ClusterModel& model, const std::vector<int>& servers) {
  require(servers.size() == model.num_tiers(), "tier_base_loads: one server count per tier");
  std::vector<double> load(model.num_tiers(), 0.0);
  for (const auto& c : model.classes())
    for (const auto& d : c.route)
      load[static_cast<std::size_t>(d.tier)] +=
          c.rate.value() * d.base_service.mean();
  for (std::size_t i = 0; i < load.size(); ++i) load[i] /= static_cast<double>(servers[i]);
  return load;
}

std::vector<double> tier_utilizations(const ClusterModel& model,
                                      const std::vector<double>& frequencies) {
  return queueing::network_utilizations(model.skeleton(),
                                        model.network_classes(frequencies));
}

StabilityFinding probe_stability(const ClusterModel& model,
                                 const std::vector<double>& frequencies) {
  const std::vector<double> rho = tier_utilizations(model, frequencies);
  for (std::size_t i = 0; i < rho.size(); ++i)
    if (rho[i] >= 1.0) return StabilityFinding{false, i, rho[i]};
  return StabilityFinding{};
}

std::string overload_description(const ClusterModel& model,
                                 const StabilityFinding& finding) {
  const std::string head =
      "tier '" + model.tiers()[finding.tier].name + "' has no steady state (rho = ";
  if (finding.rho >= 1.0) return head + format_double(finding.rho, 4) + " >= 1)";
  char buf[32];  // shortest round-trip text: every digit below 1
  const auto res = std::to_chars(buf, buf + sizeof buf, finding.rho);
  return head + std::string(buf, res.ptr) + " < 1, yet the analysis diverges)";
}

Evaluation evaluate_stable(const ClusterModel& model,
                           const std::vector<double>& frequencies, const char* where) {
  Evaluation ev = model.evaluate(frequencies);
  if (ev.stable) return ev;
  StabilityFinding finding = probe_stability(model, frequencies);
  if (finding.stable) {  // every rho < 1: the analysis diverged within rounding
    const std::vector<double> rho = tier_utilizations(model, frequencies);
    const auto busiest = std::max_element(rho.begin(), rho.end());
    finding.tier = static_cast<std::size_t>(busiest - rho.begin());
    finding.rho = rho[finding.tier];
  }
  throw Error(std::string(where) + ": [CPM-L001] " + overload_description(model, finding));
}

units::Seconds class_delay_floor(const ClusterModel& model, std::size_t k,
                                 const std::vector<double>& frequencies) {
  double floor = 0.0;
  for (const auto& d : model.classes()[k].route) {
    const auto tier = static_cast<std::size_t>(d.tier);
    floor += d.base_service.mean() /
             model.tiers()[tier].power.speedup(units::hertz(frequencies[tier]));
  }
  return units::seconds(floor);
}

std::string sla_floor_description(const ClusterModel& model, std::size_t k,
                                  units::Seconds target, units::Seconds floor) {
  return "class '" + model.classes()[k].name + "' mean SLA " +
         format_double(target.value(), 4) +
         " s is not above its no-queueing service demand " +
         format_double(floor.value(), 4) + " s";
}

std::string sla_floor_hint(units::Seconds floor) {
  return "raise the mean delay target above " + format_double(floor.value(), 4) +
         " s or cut the route's service demands";
}

}  // namespace cpm::core
