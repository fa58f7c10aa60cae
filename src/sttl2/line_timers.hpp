// Per-line retention timers for one cache array: at most one pending timer
// per (set, way) slot, kept in an indexed binary min-heap.
//
// The paper's refresh engine keeps one small retention counter per line, so
// its state is O(lines). So does this: a write, install or refresh re-arms
// the line's timer in place instead of queueing another entry, and size()
// never exceeds the line count however long the run.
//
// Timers pop in (when, set, way) order. The order is total, so the sequence
// of refresh and expiry trials (and, with fault injection, which line draws
// which fault RNG value) depends on the armed timers alone.
//
// A timer carries the `stamp` it was armed with (the line's retention
// deadline). Consumers check at pop time that the slot is still valid and
// the stamp still matches the line, and skip the timer otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sttgpu::sttl2 {

class LineTimers {
 public:
  struct Timer {
    Cycle when;
    Cycle stamp;
    std::uint32_t set;
    std::uint32_t way;
  };

  LineTimers(std::uint64_t sets, unsigned ways)
      : ways_(ways), pos_(static_cast<std::size_t>(sets) * ways, kNone) {
    STTGPU_ASSERT(pos_.size() < kNone);
  }

  std::size_t size() const noexcept { return heap_.size(); }
  bool empty() const noexcept { return heap_.empty(); }
  /// Earliest pending `when`; kNoCycle when nothing is armed.
  Cycle next_when() const noexcept { return heap_.empty() ? kNoCycle : heap_.front().when; }
  const Timer& top() const noexcept { return heap_.front(); }

  /// Arms the timer of (@p set, @p way) to fire at @p when, replacing any
  /// timer the slot already had.
  void arm(std::uint64_t set, unsigned way, Cycle when, Cycle stamp) {
    const std::size_t slot = static_cast<std::size_t>(set) * ways_ + way;
    STTGPU_ASSERT(way < ways_ && slot < pos_.size());
    const Timer t{when, stamp, static_cast<std::uint32_t>(set), way};
    std::uint32_t i = pos_[slot];
    if (i == kNone) {
      i = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(t);
    } else if (!before(t, heap_[i])) {
      sift_down(i, t);
      return;
    }
    sift_up(i, t);
  }

  /// Removes the earliest timer.
  void pop() noexcept {
    pos_[slot_of(heap_.front())] = kNone;
    const Timer last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  static bool before(const Timer& a, const Timer& b) noexcept {
    if (a.when != b.when) return a.when < b.when;
    if (a.set != b.set) return a.set < b.set;
    return a.way < b.way;
  }
  std::size_t slot_of(const Timer& t) const noexcept {
    return static_cast<std::size_t>(t.set) * ways_ + t.way;
  }
  void place(std::uint32_t i, const Timer& t) noexcept {
    heap_[i] = t;
    pos_[slot_of(t)] = i;
  }
  /// Moves the hole at @p i toward the root until @p t fits, then fills it.
  void sift_up(std::uint32_t i, const Timer& t) noexcept {
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (!before(t, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, t);
  }
  /// Moves the hole at @p i toward the leaves until @p t fits, then fills it.
  void sift_down(std::uint32_t i, const Timer& t) noexcept {
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * std::size_t{i} + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], t)) break;
      place(i, heap_[child]);
      i = static_cast<std::uint32_t>(child);
    }
    place(i, t);
  }

  unsigned ways_;
  std::vector<Timer> heap_;
  std::vector<std::uint32_t> pos_;  ///< slot -> heap index, kNone when unarmed
};

}  // namespace sttgpu::sttl2
