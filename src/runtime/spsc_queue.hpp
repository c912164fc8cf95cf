// Bounded lock-free single-producer/single-consumer ring buffer.
//
// This is the backbone of the simulated data plane: a virtual NIC RX queue,
// an inter-thread hand-off, and a link endpoint are all SpscQueues. The
// implementation caches the opposing index locally (à la Rigtorp) so the
// common case touches a single shared cache line per side.
//
// The slots are raw storage: an element is constructed by its push and
// destroyed by its pop (or by the queue's destructor), so an idle queue of
// large elements costs its allocation but no constructor and no page
// touched.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "runtime/common.hpp"

namespace sfc::rt {

template <typename T>
class SpscQueue : NonCopyable {
 public:
  /// @param capacity Maximum number of elements the queue holds. Rounded up
  ///                 to a power of two internally; one slot is reserved to
  ///                 distinguish full from empty.
  explicit SpscQueue(std::size_t capacity)
      : mask_(next_pow2(capacity + 1) - 1),
        slots_(std::allocator<T>().allocate(mask_ + 1)) {}

  /// Destroys the elements still queued. No producer or consumer may run.
  ~SpscQueue() {
    const auto head = head_.load(std::memory_order_acquire);
    for (auto i = tail_.load(std::memory_order_relaxed); i != head;
         i = (i + 1) & mask_) {
      std::destroy_at(&slots_[i]);
    }
    std::allocator<T>().deallocate(slots_, mask_ + 1);
  }

  /// Attempts to enqueue by move. Returns false when full.
  bool try_push(T&& value) noexcept { return push(std::move(value)); }
  bool try_push(const T& value) noexcept { return push(value); }

  /// Attempts to dequeue. Returns std::nullopt when empty.
  std::optional<T> try_pop() noexcept {
    const auto tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail == head_cache_) return std::nullopt;
    }
    std::optional<T> out{std::move(slots_[tail])};
    std::destroy_at(&slots_[tail]);
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return out;
  }

  /// Approximate number of queued elements (racy by design).
  std::size_t size_approx() const noexcept {
    const auto head = head_.load(std::memory_order_acquire);
    const auto tail = tail_.load(std::memory_order_acquire);
    return (head - tail) & mask_;
  }

  bool empty_approx() const noexcept { return size_approx() == 0; }

  std::size_t capacity() const noexcept { return mask_; }

 private:
  template <typename U>
  bool push(U&& value) noexcept {
    const auto head = head_.load(std::memory_order_relaxed);
    const auto next = (head + 1) & mask_;
    if (next == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (next == tail_cache_) return false;
    }
    std::construct_at(&slots_[head], std::forward<U>(value));
    head_.store(next, std::memory_order_release);
    return true;
  }

  const std::size_t mask_;
  T* const slots_;  ///< mask_ + 1 slots; live from tail_ up to head_

  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
  alignas(kCacheLineSize) std::size_t tail_cache_{0};
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
  alignas(kCacheLineSize) std::size_t head_cache_{0};
};

}  // namespace sfc::rt
