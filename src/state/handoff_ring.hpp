// Cross-shard handoff rings for the shard-affine state store.
//
// In shard-affine mode a partition's map is mutated only by its owning
// worker (see ShardMap). Writes that land on someone else's shard — a
// dep-mask spanning partitions of two owners, or a NACK replay's portions
// of another worker's partitions — are handed to the owner through these
// rings and drained at burst boundaries in the owner's worker loop.
//
// Layout: a full (producers × owners) mesh of SPSC rings, so every cell
// has exactly one producer and one consumer and stays lock-free with plain
// acquire/release. Producer index = the worker's thread index (a node's
// NACK replay runs on worker 0 and produces as it); a standalone applier
// driven from a thread with no shard uses an extra last row. Each
// SpscQueue already cache-line-pads its head/tail indices and builds its
// elements only when they are pushed, so an idle ring touches none of its
// slots; the deque keeps cell addresses stable.
//
// Occupancy telemetry (pushes, full-ring rejects, depth high-water) is
// tracked with relaxed atomics and exported as registry gauges so bench
// JSON shows shard skew.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "runtime/common.hpp"
#include "runtime/spsc_queue.hpp"

namespace sfc::state {

template <typename T>
class HandoffMesh : rt::NonCopyable {
 public:
  /// @param producers Number of producer rows (one per producing thread).
  /// @param owners    Number of consumer columns (data-path workers).
  /// @param capacity  Per-ring entry capacity.
  HandoffMesh(std::size_t producers, std::size_t owners, std::size_t capacity)
      : producers_(producers), owners_(owners) {
    for (std::size_t i = 0; i < producers_ * owners_; ++i) {
      rings_.emplace_back(capacity);
    }
  }

  std::size_t producers() const noexcept { return producers_; }
  std::size_t owners() const noexcept { return owners_; }

  /// Producer-side free-slot check. Exact from the producing thread (the
  /// ring's only filler): a true result cannot be invalidated before that
  /// thread's own push, because the consumer only makes room. A false
  /// result may be stale-conservative (spurious hold; caller retries).
  bool can_push(std::size_t producer, std::size_t owner) const noexcept {
    const auto& ring = cell(producer, owner);
    return ring.size_approx() < ring.capacity();
  }

  /// Enqueues @p v from @p producer to @p owner's ring. Returns false when
  /// the ring is full (caller holds the work and retries; packet parks).
  bool push(std::size_t producer, std::size_t owner, T&& v) noexcept {
    auto& ring = cell(producer, owner);
    if (!ring.try_push(std::move(v))) {
      full_rejects_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    pushes_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t depth = ring.size_approx();
    std::uint64_t hw = depth_hw_.load(std::memory_order_relaxed);
    while (depth > hw && !depth_hw_.compare_exchange_weak(
                             hw, depth, std::memory_order_relaxed)) {
    }
    return true;
  }

  /// Drains every producer's ring into @p owner, invoking @p fn per entry.
  /// Must be called only by the owning worker (or under quiesce). Returns
  /// the number of entries consumed.
  template <typename Fn>
  std::size_t drain(std::size_t owner, Fn&& fn) {
    std::size_t n = 0;
    for (std::size_t prod = 0; prod < producers_; ++prod) {
      auto& ring = cell(prod, owner);
      while (auto entry = ring.try_pop()) {
        fn(*entry);
        ++n;
      }
    }
    return n;
  }

  /// True when any producer has work queued for @p owner.
  bool pending(std::size_t owner) const noexcept {
    for (std::size_t prod = 0; prod < producers_; ++prod) {
      if (!cell(prod, owner).empty_approx()) return true;
    }
    return false;
  }

  /// True when every ring in the mesh is empty (quiescence check).
  bool empty() const noexcept {
    for (const auto& ring : rings_) {
      if (!ring.empty_approx()) return false;
    }
    return true;
  }

  std::uint64_t pushes() const noexcept {
    return pushes_.load(std::memory_order_relaxed);
  }
  std::uint64_t full_rejects() const noexcept {
    return full_rejects_.load(std::memory_order_relaxed);
  }
  std::uint64_t depth_high_water() const noexcept {
    return depth_hw_.load(std::memory_order_relaxed);
  }

 private:
  rt::SpscQueue<T>& cell(std::size_t producer, std::size_t owner) noexcept {
    return rings_[owner * producers_ + producer];
  }
  const rt::SpscQueue<T>& cell(std::size_t producer,
                               std::size_t owner) const noexcept {
    return rings_[owner * producers_ + producer];
  }

  const std::size_t producers_;
  const std::size_t owners_;
  /// Row-major by owner so a drain walks contiguous cells.
  std::deque<rt::SpscQueue<T>> rings_;

  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> full_rejects_{0};
  std::atomic<std::uint64_t> depth_hw_{0};
};

}  // namespace sfc::state
