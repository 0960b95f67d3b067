// Discrete-event simulator for priority-type cluster computing systems.
//
// Simulates exactly the stochastic model the analytical module evaluates:
// an open network of multi-server stations, K priority classes with fixed
// routes, Poisson arrivals, general service laws, and one of four
// scheduling disciplines per station (FCFS, non-preemptive priority,
// preemptive-resume priority, processor sharing). On top of performance it
// integrates each station's power draw so the paper's energy metrics can be
// validated as well (experiments E1/E2).
//
// Determinism: given a seed, results are bit-for-bit reproducible. Each
// class draws inter-arrival times and service times from its own RNG
// substreams, so perturbing one class's parameters does not scramble the
// variates of the others (common random numbers across scenarios).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpm/common/distribution.hpp"
#include "cpm/common/rng.hpp"
#include "cpm/common/units.hpp"
#include "cpm/common/stats.hpp"
#include "cpm/queueing/network.hpp"
#include "cpm/workload/rate_schedule.hpp"

namespace cpm::sim {

/// One simulated station (tier).
struct SimStation {
  std::string name;
  int servers = 1;
  queueing::Discipline discipline = queueing::Discipline::kNonPreemptivePriority;
  /// Power accounting at the station's operating point: watts per server
  /// when idle, and the extra watts drawn per busy server.
  units::Watts idle_watts = units::watts(0.0);
  units::Watts dynamic_watts = units::watts(0.0);
  /// Initial service-speed multiplier (1 = services run at the wall-clock
  /// duration sampled from their distributions). Changed at runtime by the
  /// management hook to emulate DVFS retuning: a job's remaining work
  /// shrinks or stretches proportionally, in-service completions included.
  double speed = 1.0;
  /// Admission control: maximum requests at the station (serving +
  /// waiting). -1 = unbounded. An arrival finding the station full is
  /// DROPPED — the whole request aborts and counts as blocked for its
  /// class (matching the M/M/c/K model of cpm/queueing/mmck.hpp).
  int capacity = -1;
};

/// One simulated customer class; index = priority (0 highest).
struct SimClass {
  std::string name;
  units::Rate rate = units::per_second(0.0);  ///< Poisson arrivals (stationary)
  std::vector<queueing::Visit> route;   ///< station visits in order
  /// When set, overrides `rate` with a nonhomogeneous Poisson source of
  /// this time-varying rate (sampled by thinning).
  std::optional<workload::RateSchedule> schedule;
  /// Closed-class mode: population > 0 makes this an interactive class of
  /// that many users cycling think -> route -> think (`rate` and
  /// `schedule` are then ignored). A user blocked at a full station goes
  /// back to thinking and retries a fresh request.
  int population = 0;
  Distribution think_time = Distribution::exponential(1.0);
  /// Exact trace replay: when non-empty, arrivals occur at precisely these
  /// (sorted, non-negative) timestamps and every other arrival mode is
  /// ignored. Fill from workload::ArrivalTrace::timestamps().
  std::vector<double> arrival_times;
};

/// What a ManagementHook invocation observes: the measurement window of
/// SimConfig::control_period just closed, per-class counters over it, and
/// the cluster's current server counts and admission map (its only
/// per-station figures are the server counts).
struct ControlSnapshot {
  double time = 0.0;                  ///< invocation model time
  // Window counters are the simulator hot path and stay raw doubles
  // (see docs/units.md boundary policy). // conv-ok: UNIT-4
  std::vector<double> arrival_rate;   ///< per class, arrivals/window
  std::vector<int> servers;           ///< per station, CURRENT server count
                                      ///< (reflects faults and actuations)
  std::vector<std::uint64_t> window_completed;  ///< per class, this window
  std::vector<std::uint64_t> window_blocked;    ///< per class, dropped + shed
  /// Per class: completions this window whose E2E delay was within the
  /// class's SimConfig::sla_thresholds entry (== window_completed when no
  /// threshold is configured).
  std::vector<std::uint64_t> window_within_sla;
  // conv-ok: UNIT-4 (hot-path window counter, see above)
  std::vector<double> window_mean_delay;  ///< per class, 0 when none completed
  /// Cluster energy over the window (idle + dynamic).
  units::Joules window_energy_joules = units::joules(0.0);
  std::vector<std::uint8_t> admitted;     ///< per class, current admission map
};

/// A new operating point for one station, returned by the management hook.
struct TierSetting {
  double speed = 1.0;
  units::Watts dynamic_watts = units::watts(0.0);
  /// Active server count; 0 = keep the current count (DVFS-only policies
  /// never resize). Shrinking preempts the lowest-priority jobs in
  /// excess of the new count back onto their queues (PS stations just
  /// recompute the sharing rate); growing redispatches waiting jobs.
  int servers = 0;
};

/// What a ManagementHook may actuate each window: per-tier operating points
/// (speed, power, server count) plus per-class admission control. Empty
/// vectors mean "no change".
struct ManagementDecision {
  std::vector<TierSetting> tiers;     ///< one per station, or empty
  std::vector<std::uint8_t> admit;    ///< one per class, or empty; 0 = shed
};

/// Periodic online-management policy (cpm::online): snapshot in, tier
/// settings AND admission decisions out.
using ManagementHook = std::function<ManagementDecision(const ControlSnapshot&)>;

/// Fault-injection event kinds (SimConfig::faults).
enum class FaultKind {
  kServersDelta,  ///< value servers fail (< 0) or are repaired (> 0)
  kSetServers,    ///< active server count becomes exactly `value` (>= 0)
  kSetCapacity,   ///< admission capacity becomes `value` (-1 = unbounded)
};

/// One scheduled fault. Server loss preempts in-excess jobs back to their
/// queues (work conserved); capacity loss never evicts standing jobs, it
/// only gates new admissions.
struct FaultEvent {
  double time = 0.0;
  int station = 0;
  FaultKind kind = FaultKind::kServersDelta;
  int value = 0;
};

struct SimConfig {
  std::vector<SimStation> stations;
  std::vector<SimClass> classes;
  double warmup_time = 0.0;   ///< statistics collected only after this
  double end_time = 1000.0;   ///< simulation horizon (model time)
  std::uint64_t seed = 1;
  /// Record every counted completion's (time, E2E delay) in order — the
  /// input of the MSER warm-up rule (cpm/sim/warmup.hpp). Off by default:
  /// it costs memory proportional to the number of completions.
  bool record_completions = false;
  /// Online management: when control_period > 0 and `manage` is set, the
  /// hook fires every period with a fresh ControlSnapshot and may retune
  /// station speeds / dynamic power (DVFS), resize tiers and gate
  /// per-class admission. Energy accounting is exact across retunings
  /// (segment-wise integration).
  double control_period = 0.0;
  ManagementHook manage;
  /// Per-class end-to-end delay thresholds behind the snapshot's
  /// window_within_sla counters. Empty = every completion counts as within
  /// SLA; an entry of 0 disables the threshold for that class only.
  std::vector<units::Seconds> sla_thresholds;
  /// Scheduled fault injection, applied at exact model times regardless of
  /// warm-up. Unsorted input is fine (the event heap orders it).
  std::vector<FaultEvent> faults;
  /// Runtime self-verification (cpm::check's in-run oracle): validates
  /// event-time monotonicity, server/capacity occupancy bounds, per-
  /// departure energy attribution and final per-class flow conservation
  /// while the simulation runs, throwing cpm::Error on the first
  /// violation. Off by default (a few % overhead on the hot path).
  bool audit = false;
};

/// Per-class simulation output.
struct SimClassResult {
  std::uint64_t completed = 0;      ///< requests counted (arrived post-warmup)
  std::uint64_t blocked = 0;        ///< requests dropped at a full station
  std::uint64_t arrived = 0;        ///< requests entering the network post-warmup
  /// Counted requests still inside the network when the run ended. Flow
  /// conservation (check::check_flow_conservation) holds exactly:
  /// arrived == completed + blocked + in_system_at_end.
  std::uint64_t in_system_at_end = 0;
  units::Seconds mean_e2e_delay = units::seconds(0.0);
  units::Seconds p95_e2e_delay = units::seconds(0.0);
  /// Marginal (dynamic) energy per request.
  units::Joules mean_e2e_energy = units::joules(0.0);
  /// blocked / (blocked + completed); 0 when nothing was offered.
  [[nodiscard]] double blocking_probability() const {
    const double offered = static_cast<double>(blocked + completed);
    return offered > 0.0 ? static_cast<double>(blocked) / offered : 0.0;
  }
};

/// Per-station simulation output, post-warm-up.
struct SimStationResult {
  double utilization = 0.0;            ///< time-average busy servers / servers
  double mean_queue_len = 0.0;         ///< waiting jobs (excluding in service)
  units::Watts avg_power = units::watts(0.0);
  /// Per class, mean sojourn minus the job's own service time at the
  /// station; 0 if the class never left the station.
  std::vector<double> mean_wait;
};

/// One recorded completion (only when SimConfig::record_completions).
struct CompletionRecord {
  double time = 0.0;  ///< model time of the completion
  units::Seconds e2e_delay = units::seconds(0.0);  ///< request E2E delay
  std::size_t cls = 0;     ///< class index of the request
};

struct SimResult {
  std::vector<SimClassResult> classes;
  std::vector<SimStationResult> stations;
  /// Aggregate (all classes) completion trace, in completion order; empty
  /// unless SimConfig::record_completions was set.
  std::vector<CompletionRecord> completions;
  units::Seconds mean_e2e_delay = units::seconds(0.0);  ///< traffic-weighted
  /// Post-warm-up time-average cluster power.
  units::Watts cluster_avg_power = units::watts(0.0);
  double measured_time = 0.0;      ///< post-warmup model time simulated
  std::uint64_t events_fired = 0;
};

/// Validates the configuration (station indices, rates, horizon ordering);
/// throws cpm::Error on violation.
void validate_config(const SimConfig& config);

/// Runs one replication. Deterministic in config.seed.
SimResult simulate(const SimConfig& config);

}  // namespace cpm::sim
