// Slab packet pool with a lock-free free list and per-thread free
// magazines.
//
// All packets for one experiment come from a single pool so allocation is
// a queue pop on the fast path and exhaustion is back-pressure (the
// generator simply cannot inject faster than the chain drains), mirroring
// how a DPDK mempool behaves.
//
// Frees land in a small per-thread magazine (hashed slot) instead of the
// shared MPMC free list: the common free→alloc cycle on one worker then
// recycles a cache-warm packet with zero shared-CAS traffic, and the CAS
// storm of W workers all freeing into one queue head disappears. Magazines
// overflow to the global list in bulk, and allocation falls back
// magazine → global → carve → cold sweep of every magazine, so no packet
// is ever stranded.
//
// The slab is reserved as raw storage and each slot is constructed the
// first time it is handed out (a bump index, `carve`). A chain that only
// ever circulates a few hundred packets therefore never faults in the
// rest of the slab, and building a pool costs no per-packet work. The
// uncarved tail plays the part of a pre-filled global list, so exhaustion
// (every slot carved, none free) is unchanged.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "packet/packet.hpp"
#include "runtime/common.hpp"
#include "runtime/mpmc_queue.hpp"

namespace sfc::pkt {

class PacketPool : rt::NonCopyable {
 public:
  explicit PacketPool(std::size_t capacity);
  ~PacketPool();

  /// Pops a packet; returns nullptr when the pool is exhausted.
  Packet* alloc_raw() noexcept;

  /// RAII variant of alloc_raw().
  PacketPtr alloc() noexcept {
    return PacketPtr{alloc_raw(), PacketDeleter{this}};
  }

  /// Returns @p p to its owning pool (packet is reset for reuse). Safe to
  /// call on any pool object: packets are routed to the pool that
  /// allocated them, so components handling packets from several pools
  /// (e.g. data + protocol-internal) free through whichever handle they
  /// hold.
  void free_raw(Packet* p) noexcept;

  std::size_t capacity() const noexcept { return capacity_; }

  /// Approximate number of packets currently available (global free list,
  /// every thread magazine and the slots not yet carved).
  std::size_t available_approx() const noexcept {
    std::size_t n = free_list_.size_approx() + (capacity_ - carved());
    for (const auto& m : magazines_) n += m.q.size_approx();
    return n;
  }

  /// Slots ever handed out: the pool's working set, which a chain that
  /// keeps up with its load holds far below capacity (exported as
  /// `pool.carved`).
  std::size_t carved() const noexcept {
    return carved_.load(std::memory_order_relaxed);
  }

  /// True if @p p was allocated from this pool (debug aid).
  bool owns(const Packet* p) const noexcept;

  /// Total free_raw() retries against a transiently-full free list. A
  /// nonzero value is normal under contention; a growing one means frees
  /// keep racing concurrent allocs (exported as `pool.free_retries`).
  std::uint64_t free_retries() const noexcept {
    return free_retries_.load(std::memory_order_relaxed);
  }

  /// Total alloc_raw() calls that found the pool exhausted. Under a
  /// saturating generator this is ordinary back-pressure; in a paced
  /// steady-state window it means the data path allocated (exported as
  /// `pool.alloc_failures`, a quiet-mode violation).
  std::uint64_t alloc_failures() const noexcept {
    return alloc_failures_.load(std::memory_order_relaxed);
  }

  /// Allocs served from the caller's magazine (cache-warm recycle, no
  /// shared-queue CAS). Exported as `pool.magazine_hits`.
  std::uint64_t magazine_hits() const noexcept {
    return magazine_hits_.load(std::memory_order_relaxed);
  }

  /// Number of per-thread magazine slots (threads hash onto these).
  static constexpr std::size_t kMagazines = 64;
  /// Packets a magazine holds before overflowing to the global list.
  static constexpr std::size_t kMagazineCapacity = 32;

 private:
  /// One free magazine. Still an MPMC queue — several threads can hash to
  /// one slot — but in the steady state a slot has one owner, so its CAS
  /// slots stay core-local. Padded so neighboring magazines never share a
  /// line.
  struct alignas(rt::kCacheLineSize) Magazine {
    rt::MpmcQueue<Packet*> q{kMagazineCapacity};
  };

  /// Frees the slab's raw storage. No destructor runs: packets are
  /// trivially destructible.
  struct SlabDeleter {
    void operator()(Packet* slab) const noexcept {
      ::operator delete[](slab, std::align_val_t{alignof(Packet)});
    }
  };
  static_assert(std::is_trivially_destructible_v<Packet>,
                "the slab frees carved packets without destroying them");

  /// Magazine slot for the calling thread.
  Magazine& my_magazine() noexcept;

  /// Constructs the next never-used slot; nullptr once all are carved.
  Packet* carve() noexcept;

  /// Pushes @p p to the global free list, retrying transient "full"
  /// reports (the pool can never truly exceed capacity).
  void push_global(Packet* p) noexcept;

  const std::size_t capacity_;
  /// Raw storage for capacity_ packets; slots [0, carved_) hold packets.
  std::unique_ptr<Packet, SlabDeleter> slab_;
  std::atomic<std::size_t> carved_{0};
  rt::MpmcQueue<Packet*> free_list_;
  std::vector<Magazine> magazines_{kMagazines};
  std::atomic<std::uint64_t> free_retries_{0};
  std::atomic<std::uint64_t> alloc_failures_{0};
  std::atomic<std::uint64_t> magazine_hits_{0};
};

}  // namespace sfc::pkt
