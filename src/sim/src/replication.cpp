#include "cpm/sim/replication.hpp"

#include <unordered_set>

#include "cpm/common/error.hpp"
#include "cpm/common/parallel.hpp"
#include "cpm/common/rng.hpp"

namespace cpm::sim {

namespace {

/// Confidence level of every interval replicate reports.
constexpr double kConfidence = 0.95;

}  // namespace

std::vector<std::uint64_t> replication_seeds(std::uint64_t base_seed,
                                             int replications) {
  require(replications >= 1, "replication_seeds: need >= 1 replication");
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(replications));
  std::unordered_set<std::uint64_t> seen;
  SplitMix64 sm(base_seed);
  while (seeds.size() < static_cast<std::size_t>(replications)) {
    const std::uint64_t s = sm.next();
    if (!seen.insert(s).second) continue;  // collision: skip, keep distinct
    seeds.push_back(s);
  }
  return seeds;
}

RepSummary summarize_replication(const SimResult& result) {
  RepSummary s;
  s.classes.reserve(result.classes.size());
  for (const auto& c : result.classes) {
    RepClassSummary cs;
    cs.mean_e2e_delay = c.mean_e2e_delay;
    cs.p95_e2e_delay = c.p95_e2e_delay;
    cs.mean_e2e_energy = c.mean_e2e_energy;
    cs.blocking_probability = c.blocking_probability();
    cs.completed = c.completed;
    cs.blocked = c.blocked;
    s.classes.push_back(cs);
  }
  s.mean_e2e_delay = result.mean_e2e_delay;
  s.cluster_avg_power = result.cluster_avg_power;
  s.station_utilization.reserve(result.stations.size());
  for (const auto& st : result.stations)
    s.station_utilization.push_back(st.utilization);
  s.events_fired = result.events_fired;
  return s;
}

ReplicatedResult replicate(const SimConfig& base, const ReplicationOptions& options) {
  validate_config(base);
  require(options.replications >= 2, "replicate: need >= 2 replications");
  const auto n_reps = static_cast<std::size_t>(options.replications);

  // Every aggregate reads from the flat summaries (not SimResult), so a
  // replication restored from a checkpoint feeds the statistics exactly
  // as if it had just been simulated.
  std::vector<RepSummary> summaries(n_reps);
  std::vector<std::size_t> pending;
  pending.reserve(n_reps);
  std::size_t restored = 0;
  for (std::size_t i = 0; i < n_reps; ++i) {
    // A restored summary with the wrong shape (journal from a different
    // model) cannot feed the aggregate; recompute it instead.
    if (options.restore && options.restore(i, summaries[i]) &&
        summaries[i].classes.size() == base.classes.size() &&
        summaries[i].station_utilization.size() == base.stations.size()) {
      ++restored;
    } else {
      summaries[i] = RepSummary{};  // discard any partial fill
      pending.push_back(i);
    }
  }

  const std::vector<std::uint64_t> seeds =
      replication_seeds(base.seed, options.replications);

  // Work-stealing pool, capped at hardware concurrency and at the
  // replication count: 10k replications never spawn 10k threads. Results
  // land in slots addressed by replication index, so the (nondeterministic)
  // schedule cannot change any aggregate.
  unsigned threads_used = 1;
  if (!pending.empty()) {
    threads_used = parallel_for_index(
        pending.size(),
        options.threads > 0 ? static_cast<unsigned>(options.threads) : 0,
        [&](std::size_t p) {
          const std::size_t i = pending[p];
          SimConfig cfg = base;
          cfg.seed = seeds[i];
          const SimResult result = simulate(cfg);
          summaries[i] = summarize_replication(result);
          if (options.checkpoint) options.checkpoint(i, summaries[i]);
        });
  }

  ReplicatedResult agg;
  agg.replications = options.replications;
  agg.restored = restored;
  agg.threads_used = threads_used;
  const std::size_t n_classes = base.classes.size();
  const std::size_t n_stations = base.stations.size();
  agg.classes.resize(n_classes);

  auto reduce = [&](auto metric) {
    std::vector<double> xs;
    xs.reserve(n_reps);
    for (const auto& s : summaries) xs.push_back(metric(s));
    return confidence_interval(xs, kConfidence);
  };

  for (std::size_t k = 0; k < n_classes; ++k) {
    agg.classes[k].mean_e2e_delay = reduce(
        [k](const RepSummary& s) { return s.classes[k].mean_e2e_delay.value(); });
    agg.classes[k].p95_e2e_delay = reduce(
        [k](const RepSummary& s) { return s.classes[k].p95_e2e_delay.value(); });
    agg.classes[k].mean_e2e_energy = reduce([k](const RepSummary& s) {
      return s.classes[k].mean_e2e_energy.value();
    });
    agg.classes[k].blocking_probability = reduce(
        [k](const RepSummary& s) { return s.classes[k].blocking_probability; });
    for (const auto& s : summaries) {
      agg.classes[k].total_completed += s.classes[k].completed;
      agg.classes[k].total_blocked += s.classes[k].blocked;
    }
  }
  agg.mean_e2e_delay =
      reduce([](const RepSummary& s) { return s.mean_e2e_delay.value(); });
  agg.cluster_avg_power =
      reduce([](const RepSummary& s) { return s.cluster_avg_power.value(); });
  agg.station_utilization.resize(n_stations);
  for (std::size_t s = 0; s < n_stations; ++s)
    agg.station_utilization[s] = reduce(
        [s](const RepSummary& r) { return r.station_utilization[s]; });
  for (const auto& s : summaries) agg.total_events += s.events_fired;
  return agg;
}

}  // namespace cpm::sim
