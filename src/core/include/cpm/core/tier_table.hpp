// TierTable: the one object every analytic evaluation reads through.
//
// Every delay and the cluster power of an operating point are assembled
// from one unit per tier, and a tier's unit depends only on the tier's
// server count and frequency (ClusterModel::analyze_tier). A table keeps
// the units it computes, keyed by tier, server count and the frequency's
// exact bits, so a solve that reads all its points through one table
// analyses each tier once per distinct (servers, frequency). It owns the
// one Evaluation the solve writes into and counts the points it reads
// beside the units it computes, the work counts the solvers return. It
// opens with room for one point's units, all ClusterModel::evaluate and
// power_at read, and makes a solve's room at its first unit beyond them;
// from then on, a warm table evaluates without allocating.
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
  /// asked for. Throws as ClusterModel::check_frequencies does before it
  /// computes a unit, and counts the point once its units are in hand. The
  /// views stay valid until the table computes another unit.
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
  // A computed unit: its tier, server count and frequency's bits, and the
  // offset of its figures in figures_.
  struct Key {
    std::uint64_t frequency_bits = 0;
    std::uint32_t tier = 0;
    int servers = 0;
    std::size_t offset = 0;
  };

  // Rebuilds the index with `size` (a power of two) slots.
  void reindex(std::size_t size);
  // The slot holding `key`'s unit, or the empty slot where it goes.
  [[nodiscard]] std::size_t slot_of(const Key& key) const;
  // Computes `key`'s unit at `frequency`, indexed in `slot`; its offset.
  std::size_t add(Key key, units::Hertz frequency, std::size_t slot);

  const ClusterModel* model_;
  std::vector<int> servers_;
  // Every unit's figures, one unit after another, the units' keys, and an
  // open-addressing index over the keys (0 for an empty slot, else the
  // key's index + 1), at most half full.
  std::vector<double> figures_;
  std::vector<Key> keys_;
  std::vector<std::uint32_t> slots_;
  TierBuffers buffers_;
  std::vector<TierUnit> units_;  // the last point's units
  Evaluation evaluation_;
  long evaluations_ = 0;
  long analyses_ = 0;
};

}  // namespace cpm::core
