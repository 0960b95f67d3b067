#include "cpm/core/tier_table.hpp"

#include <bit>
#include <utility>

#include "cpm/common/error.hpp"

namespace cpm::core {

namespace {

// Room for the units of a typical solve (a dual solve probes up to about
// 80 frequencies per tier), so that few solves grow the table.
constexpr std::size_t kSolveUnits = 128;

}  // namespace

TierTable::TierTable(const ClusterModel& model)
    : model_(&model), servers_(model.num_tiers()) {
  std::size_t figures = 0;  // one point's
  units_.reserve(servers_.size());
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    servers_[i] = model.tiers()[i].servers;
    units_.emplace_back(nullptr, model.skeleton().flows[i].size(),
                        model.skeleton().visits[i].size());
    figures += model.unit_size(i);
  }
  figures_.reserve(figures);
  keys_.reserve(servers_.size());
  reindex(std::bit_ceil(2 * servers_.size()));
}

void TierTable::reindex(std::size_t size) {
  slots_.assign(size, 0);
  for (std::size_t u = 0; u < keys_.size(); ++u)
    slots_[slot_of(keys_[u])] = static_cast<std::uint32_t>(u + 1);
}

std::size_t TierTable::slot_of(const Key& key) const {
  // splitmix64's finaliser: neighbouring frequencies differ in low bits.
  std::uint64_t h = key.frequency_bits ^ (std::uint64_t{key.tier} << 40) ^
                    (static_cast<std::uint64_t>(key.servers) << 52);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = static_cast<std::size_t>(h) & mask;
  for (; slots_[s] != 0; s = (s + 1) & mask) {
    const Key& k = keys_[slots_[s] - 1];
    if (k.frequency_bits == key.frequency_bits && k.tier == key.tier &&
        k.servers == key.servers)
      break;
  }
  return s;
}

std::size_t TierTable::add(Key key, units::Hertz frequency, std::size_t slot) {
  require(key.servers >= 1, "TierTable: a tier needs >= 1 server");
  // The first unit beyond a first point's makes room for a solve's.
  if (keys_.size() == servers_.size()) {
    figures_.reserve(kSolveUnits * figures_.size());
    keys_.reserve(kSolveUnits * servers_.size());
    reindex(std::bit_ceil(2 * kSolveUnits * servers_.size()));
    slot = slot_of(key);
  }
  key.offset = figures_.size();
  figures_.resize(key.offset + model_->unit_size(key.tier));
  model_->analyze_tier(key.tier, key.servers, frequency,
                       std::span(figures_).subspan(key.offset), buffers_);
  ++analyses_;
  keys_.push_back(key);
  slots_[slot] = static_cast<std::uint32_t>(keys_.size());
  if (2 * keys_.size() > slots_.size()) reindex(2 * slots_.size());
  return key.offset;
}

const std::vector<TierUnit>& TierTable::units(
    const std::vector<int>& servers, const std::vector<double>& frequencies) {
  require(servers.size() == servers_.size(),
          "TierTable: one server count per tier required");
  require(frequencies.size() == servers_.size(),
          "ClusterModel: one frequency per tier required");
  // A held unit passed the frequency checks when it was computed, so a
  // point is checked at its first miss, which can move the store.
  bool checked = false;
  const double* store = nullptr;
  do {
    store = figures_.data();
    for (std::size_t i = 0; i < units_.size(); ++i) {
      const Key key{std::bit_cast<std::uint64_t>(frequencies[i]),
                    static_cast<std::uint32_t>(i), servers[i]};
      const std::size_t s = slot_of(key);
      if (slots_[s] == 0 && !std::exchange(checked, true))
        model_->check_frequencies(frequencies);
      const std::size_t offset =
          slots_[s] != 0 ? keys_[slots_[s] - 1].offset
                         : add(key, units::hertz(frequencies[i]), s);
      units_[i].f_ = figures_.data() + offset;
    }
  } while (store != figures_.data());
  ++evaluations_;
  return units_;
}

const Evaluation& TierTable::evaluate(const std::vector<int>& servers,
                                      const std::vector<double>& frequencies) {
  const std::vector<TierUnit>& point = units(servers, frequencies);
  if (all_stable(point))
    model_->assemble(point, evaluation_);
  else
    evaluation_.stable = false;
  return evaluation_;
}

units::Watts TierTable::power(const std::vector<int>& servers,
                              const std::vector<double>& frequencies) {
  const std::vector<TierUnit>& point = units(servers, frequencies);
  return all_stable(point) ? cluster_power(point) : units::Watts::infinity();
}

}  // namespace cpm::core
