// Independent replications with confidence intervals.
//
// One simulation run yields a point estimate; the paper's accuracy claims
// need error bars. `replicate` runs R statistically independent copies of
// the same configuration (seed substreams) — in parallel across hardware
// threads — and reduces every reported metric to a mean plus a Student-t
// confidence interval across replications.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cpm/common/stats.hpp"
#include "cpm/common/units.hpp"
#include "cpm/sim/simulator.hpp"

namespace cpm::sim {

/// Everything the replicate() aggregation needs from one finished
/// replication, flattened so a checkpoint layer (cpm::resilience's run
/// journal, wired up in cpmctl) can persist it and restore it verbatim
/// after a crash. Doubles round-trip exactly through the JSON journal,
/// so a resumed aggregate is bit-identical to an uninterrupted one.
struct RepClassSummary {
  units::Seconds mean_e2e_delay;
  units::Seconds p95_e2e_delay;
  units::Joules mean_e2e_energy;
  double blocking_probability = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t blocked = 0;
};

struct RepSummary {
  std::vector<RepClassSummary> classes;
  units::Seconds mean_e2e_delay;
  units::Watts cluster_avg_power;
  std::vector<double> station_utilization;
  std::uint64_t events_fired = 0;
};

/// Flattens one simulation result into its aggregation summary.
RepSummary summarize_replication(const SimResult& result);

struct ReplicationOptions {
  int replications = 10;
  int threads = 0;         ///< 0 = std::thread::hardware_concurrency()
  /// Resume hook: called once per replication index before simulating.
  /// Returning true (and filling the summary) marks the replication as
  /// already done — the simulation is skipped and the stored summary
  /// feeds the aggregate. The sim layer stays I/O-free: persistence
  /// lives with the caller (see cpmctl simulate --journal/--resume).
  std::function<bool(std::size_t, RepSummary&)> restore;
  /// Checkpoint hook: called from pool workers as each simulated
  /// replication finishes (not for restored ones). Must be thread-safe.
  std::function<void(std::size_t, const RepSummary&)> checkpoint;
};

struct ReplicatedClassResult {
  ConfidenceInterval mean_e2e_delay;
  ConfidenceInterval p95_e2e_delay;
  ConfidenceInterval mean_e2e_energy;
  ConfidenceInterval blocking_probability;
  std::uint64_t total_completed = 0;
  std::uint64_t total_blocked = 0;
};

struct ReplicatedResult {
  std::vector<ReplicatedClassResult> classes;
  ConfidenceInterval mean_e2e_delay;
  ConfidenceInterval cluster_avg_power;
  std::vector<ConfidenceInterval> station_utilization;
  int replications = 0;
  std::size_t restored = 0;  ///< replications served by the restore hook
  std::uint64_t total_events = 0;
  /// Worker threads the run actually used: min(requested or hardware
  /// concurrency, replications) — never one thread per replication, so
  /// 10k-replication sweeps cannot exhaust OS threads.
  unsigned threads_used = 1;
};

/// The per-replication seeds `replicate` derives from a base seed: a
/// SplitMix64 stream with collisions skipped, so the replications are
/// guaranteed to run distinct substreams (a duplicate seed would silently
/// halve the sample and bias the variance estimate). Exposed so tests can
/// verify substream independence directly.
std::vector<std::uint64_t> replication_seeds(std::uint64_t base_seed,
                                             int replications);

/// Runs `options.replications` independent copies of `base` (seeds derived
/// from base.seed via replication_seeds) and aggregates every metric to a
/// 95% Student-t confidence interval. Extra threads beyond the replication
/// count are not spawned. Throws cpm::Error for replications < 2 (no
/// variance estimate would exist).
ReplicatedResult replicate(const SimConfig& base, const ReplicationOptions& options = {});

}  // namespace cpm::sim
