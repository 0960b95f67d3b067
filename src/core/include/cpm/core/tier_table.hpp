// TierTable: the tier units a solve computes, each once.
//
// Every delay and the cluster power of an operating point are assembled
// from one unit per tier, and a tier's unit depends only on the tier's
// server count and frequency (ClusterModel::analyze_tier). A solver that
// probes many points, most of which share some tier's setting with an
// earlier one, keeps the units it has computed in a table keyed by tier,
// server count and the frequency's exact bits, and analyses each tier
// once per distinct (servers, frequency).
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

  /// Tier `tier`'s unit at `servers` (>= 1) servers and `frequency`,
  /// computed the first time it is asked for. The view stays valid until
  /// the table computes another unit of the same tier.
  TierUnit unit(std::size_t tier, int servers, units::Hertz frequency);

  /// Every tier's unit at the operating point `frequencies` with `servers`
  /// servers per tier, in tier order, after the frequency checks
  /// ClusterModel::evaluate makes. The views stay valid until the table
  /// computes another unit.
  const std::vector<TierUnit>& units(const std::vector<int>& servers,
                                     const std::vector<double>& frequencies);

  /// The evaluation at `frequencies` with `servers` servers per tier,
  /// assembled from the table's units into `out`: bit for bit what
  /// model.with_servers(servers).evaluate(frequencies) returns, with the
  /// same frequency checks and the same unstable verdicts.
  void evaluate(const std::vector<int>& servers, const std::vector<double>& frequencies,
                Evaluation& out);

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

  const ClusterModel* model_;
  std::vector<Tier> tiers_;
  TierBuffers buffers_;
  std::vector<TierUnit> units_;  // the last point's units
  long analyses_ = 0;
};

}  // namespace cpm::core
