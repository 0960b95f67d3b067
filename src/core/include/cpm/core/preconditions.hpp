// Preconditions of a ClusterModel: tier stability and per-class SLA floors.
//
// These facts are shared by the runtime checks (validate_model, the cost
// optimiser, the cpm::check oracles), cpm::lint and cpm::certify, so all of
// them describe a defect with the same text. Runtime checks take stability
// from the model's one evaluation; lint and certify from utilisation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cpm/common/units.hpp"
#include "cpm/core/cluster_model.hpp"

namespace cpm::core {

/// Hint attached to every overloaded-tier finding.
inline constexpr const char* kOverloadHint =
    "add servers to the tier, raise its frequency ceiling, or shed load";

/// Outcome of a stability probe: the first tier with rho >= 1, if any.
struct StabilityFinding {
  bool stable = true;
  std::size_t tier = 0;
  double rho = 0.0;
};

/// Per-tier offered load per server at f_base (tier i is stable at
/// frequency f iff load_i * f_base / f < 1).
std::vector<double> tier_base_loads(const ClusterModel& model);
/// The same with `servers` servers per tier.
std::vector<double> tier_base_loads(const ClusterModel& model, const std::vector<int>& servers);

/// Per-tier utilisation at `frequencies`, over the model's skeleton.
std::vector<double> tier_utilizations(const ClusterModel& model,
                                      const std::vector<double>& frequencies);

StabilityFinding probe_stability(const ClusterModel& model,
                                 const std::vector<double>& frequencies);

/// "tier 'db' has no steady state (rho = 1.04 >= 1)"; below 1 (an analysis
/// that diverges within rounding of 1) it shows every digit of rho.
std::string overload_description(const ClusterModel& model,
                                 const StabilityFinding& finding);

/// The model's evaluation at `frequencies`. Throws cpm::Error "<where>:
/// [CPM-L001] <overload_description>" when it is unstable, naming the
/// first tier with rho >= 1, or else the busiest tier.
Evaluation evaluate_stable(const ClusterModel& model,
                           const std::vector<double>& frequencies, const char* where);

/// Class k's no-queueing end-to-end delay: its route's service demands at
/// `frequencies`, with zero waiting.
units::Seconds class_delay_floor(const ClusterModel& model, std::size_t k,
                                 const std::vector<double>& frequencies);

/// A mean target is attainable only strictly above the floor: the floor
/// itself needs zero queueing, which a traffic-carrying class never gets.
inline bool sla_mean_target_feasible(units::Seconds target,
                                     units::Seconds floor) {
  return target > floor;
}

std::string sla_floor_description(const ClusterModel& model, std::size_t k,
                                  units::Seconds target, units::Seconds floor);
std::string sla_floor_hint(units::Seconds floor);

}  // namespace cpm::core
