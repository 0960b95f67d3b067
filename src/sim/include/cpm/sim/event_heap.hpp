// 4-ary min-heap for the discrete-event hot path.
//
// Entries are ordered by (time, seq): the sequence number breaks ties
// deterministically in insertion order, which keeps simulations bit-for-bit
// reproducible. A 4-ary layout halves the tree height of the old binary
// heap and keeps sibling keys in one or two cache lines, which measurably
// cuts pop cost at simulator queue depths (dozens to thousands of pending
// events). Sift operations move a hole instead of swapping whole entries,
// so each displaced entry is moved exactly once. The simulator's POD
// events never need to be found again (stale completions are invalidated
// by token, not removed), so the heap keeps no handles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace cpm::sim {

template <class Payload>
class FourAryHeap {
 public:
  struct Entry {
    double time = 0.0;
    std::uint64_t seq = 0;
    Payload payload{};
  };

  [[nodiscard]] bool empty() const { return slots_.empty(); }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] const Entry& top() const { return slots_.front(); }

  void reserve(std::size_t n) { slots_.reserve(n); }
  void clear() { slots_.clear(); }

  void push(double time, std::uint64_t seq, Payload payload) {
    slots_.push_back(Entry{time, seq, std::move(payload)});
    sift_up(slots_.size() - 1);
  }

  /// Removes and returns the earliest entry.
  Entry pop() {
    Entry out = std::move(slots_.front());
    Entry last = std::move(slots_.back());
    slots_.pop_back();
    if (!slots_.empty()) {
      const std::size_t hole = sift_down_hole(0, last);
      slots_[hole] = std::move(last);
    }
    return out;
  }

 private:
  static bool before(double ta, std::uint64_t sa, const Entry& b) {
    if (ta != b.time) return ta < b.time;
    return sa < b.seq;
  }

  void sift_up(std::size_t i) {
    Entry e = std::move(slots_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e.time, e.seq, slots_[parent])) break;
      slots_[i] = std::move(slots_[parent]);
      i = parent;
    }
    slots_[i] = std::move(e);
  }

  /// Sinks a hole from `i` until `e` fits there; returns the hole index.
  std::size_t sift_down_hole(std::size_t i, const Entry& e) {
    const std::size_t n = slots_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) return i;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c)
        if (before(slots_[c].time, slots_[c].seq, slots_[best])) best = c;
      if (!before(slots_[best].time, slots_[best].seq, e)) return i;
      slots_[i] = std::move(slots_[best]);
      i = best;
    }
  }

  std::vector<Entry> slots_;
};

}  // namespace cpm::sim
