#include "cpm/core/tier_table.hpp"

#include <bit>

#include "cpm/common/error.hpp"

namespace cpm::core {

namespace {

// Room for the units of a typical solve (a dual solve probes up to about
// 80 frequencies per tier), so that few solves grow the table.
constexpr std::size_t kInitialUnits = 128;

}  // namespace

TierTable::TierTable(const ClusterModel& model) : model_(&model), tiers_(model.num_tiers()) {
  for (std::size_t i = 0; i < tiers_.size(); ++i) {
    tiers_[i].size = model.unit_size(i);
    tiers_[i].flows = model.skeleton().flows[i].size();
    tiers_[i].visits = model.skeleton().visits[i].size();
    tiers_[i].slots.assign(2 * kInitialUnits, 0);
    tiers_[i].keys.reserve(kInitialUnits);
    tiers_[i].figures.reserve(kInitialUnits * tiers_[i].size);
  }
}

std::size_t TierTable::slot_of(const Key& key, std::size_t mask) {
  // A 64-bit mix (splitmix64's finaliser) of the frequency's bits and the
  // server count: neighbouring frequencies differ only in low mantissa bits.
  std::uint64_t h = key.frequency_bits ^ (static_cast<std::uint64_t>(key.servers) << 52);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h) & mask;
}

void TierTable::grow(Tier& tier) {
  tier.slots.assign(2 * tier.slots.size(), 0);
  const std::size_t mask = tier.slots.size() - 1;
  for (std::size_t u = 0; u < tier.keys.size(); ++u) {
    std::size_t s = slot_of(tier.keys[u], mask);
    while (tier.slots[s] != 0) s = (s + 1) & mask;
    tier.slots[s] = static_cast<std::uint32_t>(u + 1);
  }
}

TierUnit TierTable::unit(std::size_t tier, int servers, units::Hertz frequency) {
  require(servers >= 1, "TierTable: a tier needs >= 1 server");
  Tier& t = tiers_[tier];
  const Key key{std::bit_cast<std::uint64_t>(frequency.value()), servers};
  const std::size_t mask = t.slots.size() - 1;
  std::size_t s = slot_of(key, mask);
  for (; t.slots[s] != 0; s = (s + 1) & mask) {
    const std::size_t u = t.slots[s] - 1;
    if (t.keys[u].frequency_bits == key.frequency_bits && t.keys[u].servers == servers)
      return TierUnit(t.figures.data() + u * t.size, t.flows, t.visits);
  }
  const std::size_t u = t.keys.size();
  t.figures.resize((u + 1) * t.size);
  model_->analyze_tier(tier, servers, frequency,
                       std::span<double>(t.figures).subspan(u * t.size, t.size), buffers_);
  ++analyses_;
  t.keys.push_back(key);
  t.slots[s] = static_cast<std::uint32_t>(u + 1);
  if (2 * t.keys.size() > t.slots.size()) grow(t);
  return TierUnit(t.figures.data() + u * t.size, t.flows, t.visits);
}

const std::vector<TierUnit>& TierTable::units(const std::vector<int>& servers,
                                              const std::vector<double>& frequencies) {
  require(servers.size() == tiers_.size(), "TierTable: one server count per tier required");
  model_->check_frequencies(frequencies);
  units_.clear();
  for (std::size_t i = 0; i < tiers_.size(); ++i)
    units_.push_back(unit(i, servers[i], units::hertz(frequencies[i])));
  return units_;
}

void TierTable::evaluate(const std::vector<int>& servers, const std::vector<double>& frequencies,
                         Evaluation& out) {
  const std::vector<TierUnit>& point = units(servers, frequencies);
  if (all_stable(point))
    model_->assemble(point, out);
  else
    out.stable = false;
}

}  // namespace cpm::core
