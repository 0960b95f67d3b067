// TierTable: the one object a solve evaluates through.
//
// Every delay and the cluster power of an operating point are assembled
// from one unit per tier, and a tier's unit depends only on the tier's
// server count and frequency (ClusterModel::analyze_tier). A solver that
// probes many points, most of which share some tier's setting with an
// earlier one, reads every point through one table: it keeps the units it
// has computed, keyed by tier, server count and the frequency's exact bits,
// so it analyses each tier once per distinct (servers, frequency); it owns
// the one Evaluation the solve writes into, so a warm table evaluates
// without allocating; and it counts the operating points it reads beside
// the units it computes, the work counts the solvers return.
#pragma once

#include <cstdint>
#include <vector>

#include "cpm/core/cluster_model.hpp"

namespace cpm::core {

class TierTable {
 public:
  /// A table of `model`'s units. It keeps a reference: `model` must
  /// outlive it.
  explicit TierTable(const ClusterModel& model);
  // Its units are views of its own storage.
  TierTable(const TierTable&) = delete;
  TierTable& operator=(const TierTable&) = delete;

  [[nodiscard]] const ClusterModel& model() const { return *model_; }
  /// The model's server counts, one per tier.
  [[nodiscard]] const std::vector<int>& servers() const { return servers_; }

  /// Every tier's unit at the operating point `frequencies` with `servers`
  /// servers per tier, in tier order, each computed the first time it is
  /// asked for. Counts one point, after the frequency checks
  /// ClusterModel::evaluate makes. The views stay valid until the table
  /// computes another unit.
  const std::vector<TierUnit>& units(const std::vector<int>& servers,
                                     const std::vector<double>& frequencies);

  /// The evaluation at the point, assembled from its units into the
  /// table's own Evaluation: bit for bit what
  /// model.with_servers(servers).evaluate(frequencies) returns, with the
  /// same frequency checks and the same unstable verdicts. At an unstable
  /// point only `stable` and the accessors are meaningful; the metrics keep
  /// the last stable point's. The reference stays valid until the next
  /// evaluation. Counts one point.
  const Evaluation& evaluate(const std::vector<int>& servers,
                             const std::vector<double>& frequencies);
  const Evaluation& evaluate(const std::vector<double>& frequencies) {
    return evaluate(servers_, frequencies);
  }

  /// Cluster average power at the point, +infinity when unstable: its
  /// units' average powers summed, without assembling the rest of the
  /// point, as ClusterModel::power_at reads it. Counts one point.
  units::Watts power(const std::vector<int>& servers,
                     const std::vector<double>& frequencies);
  units::Watts power(const std::vector<double>& frequencies) {
    return power(servers_, frequencies);
  }

  /// The operating points read so far, each units, evaluate or power call
  /// one.
  [[nodiscard]] long evaluations() const { return evaluations_; }
  /// The units computed so far: one station analysis each.
  [[nodiscard]] long analyses() const { return analyses_; }

 private:
  struct Key {
    std::uint64_t frequency_bits;
    int servers;
  };
  // One tier's units: unit u's figures start at u * size, its key is
  // keys[u], and `slots` is an open-addressing index over the keys (0 for
  // an empty slot, else the unit's index + 1), at most half full.
  struct Tier {
    std::size_t size = 0;
    std::size_t flows = 0;
    std::size_t visits = 0;
    std::vector<double> figures;
    std::vector<Key> keys;
    std::vector<std::uint32_t> slots;
  };

  static std::size_t slot_of(const Key& key, std::size_t mask);
  static void grow(Tier& tier);
  // The figures of tier `tier`'s unit at `servers` (>= 1) servers and
  // `frequency`, valid until the table computes another unit of the tier.
  const double* figures(std::size_t tier, int servers, units::Hertz frequency);

  const ClusterModel* model_;
  std::vector<int> servers_;
  std::vector<Tier> tiers_;
  TierBuffers buffers_;
  std::vector<TierUnit> units_;  // the last point's units
  Evaluation evaluation_;
  long evaluations_ = 0;
  long analyses_ = 0;
};

}  // namespace cpm::core
