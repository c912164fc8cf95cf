#include "packet/packet_pool.hpp"

#include <algorithm>
#include <functional>
#include <thread>

#include "obs/prof.hpp"
#include "runtime/common.hpp"

namespace sfc::pkt {

void PacketDeleter::operator()(Packet* p) const noexcept {
  if (p != nullptr && pool != nullptr) pool->free_raw(p);
}

PacketPool::PacketPool(std::size_t capacity)
    : capacity_(capacity),
      slab_(static_cast<Packet*>(::operator new[](
          capacity * sizeof(Packet), std::align_val_t{alignof(Packet)}))),
      free_list_(capacity) {}

PacketPool::~PacketPool() = default;

PacketPool::Magazine& PacketPool::my_magazine() noexcept {
  static thread_local const std::size_t slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) &
      (kMagazines - 1);
  return magazines_[slot];
}

Packet* PacketPool::alloc_raw() noexcept {
  obs::ProfStageTimer pt{obs::prof_slot(), obs::ProfStage::kPoolAlloc};
  // Hot path: recycle from the caller's own magazine — the packet this
  // thread freed a moment ago, still warm in its cache, no shared CAS.
  if (auto p = my_magazine().q.try_pop()) {
    magazine_hits_.fetch_add(1, std::memory_order_relaxed);
    (*p)->reset();
    return *p;
  }
  if (auto p = free_list_.try_pop()) {
    (*p)->reset();
    return *p;
  }
  // Never-used slots next: they stand in for the global list a pre-filled
  // slab would hold, so the order matches one.
  if (Packet* p = carve()) return p;
  // Cold path: the global list is dry but other threads' magazines may
  // still hold packets (e.g. the sink frees, the source allocates). Sweep
  // them before reporting exhaustion.
  for (auto& m : magazines_) {
    if (auto p = m.q.try_pop()) {
      (*p)->reset();
      return *p;
    }
  }
  alloc_failures_.fetch_add(1, std::memory_order_relaxed);
  obs::prof_count(obs::ProfCounter::kPoolAllocFailure);
  return nullptr;
}

Packet* PacketPool::carve() noexcept {
  std::size_t i = carved_.load(std::memory_order_relaxed);
  // CAS, not fetch_add, so the index stops at capacity_.
  while (i < capacity_) {
    if (carved_.compare_exchange_weak(i, i + 1, std::memory_order_relaxed)) {
      Packet* p = std::construct_at(slab_.get() + i);
      p->owner_ = this;
      return p;
    }
  }
  return nullptr;
}

void PacketPool::push_global(Packet* p) noexcept {
  // The lock-free queue can transiently report "full" while a concurrent
  // alloc is mid-pop (its slot sequence not yet republished). The pool can
  // never be truly over capacity, so retry until the push lands — dropping
  // would leak the packet forever. Bounded exponential backoff (same shape
  // as Link::send_blocking): short cpu_relax bursts cover the common
  // one-republish race; past ~64 spins the core is better handed to the
  // thread holding up the slot.
  std::uint64_t retries = 0;
  for (unsigned backoff = 1; !free_list_.try_push(std::move(p));
       backoff = std::min(backoff * 2, 1024u)) {
    ++retries;
    if (backoff <= 64) {
      for (unsigned i = 0; i < backoff; ++i) rt::cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  if (retries != 0) {
    free_retries_.fetch_add(retries, std::memory_order_relaxed);
    obs::prof_count(obs::ProfCounter::kPoolFreeRetry, retries);
  }
}

void PacketPool::free_raw(Packet* p) noexcept {
  if (p == nullptr) return;
  if (p->owner_ != this && p->owner_ != nullptr) {
    p->owner_->free_raw(p);
    return;
  }
  obs::ProfStageTimer pt{obs::prof_slot(), obs::ProfStage::kPoolFree};
  Magazine& mag = my_magazine();
  if (SFC_LIKELY(mag.q.try_push(p))) return;
  // Magazine full: spill half of it to the global list in one batch so the
  // next few frees stay on the magazine path, then retry. If the retry
  // still loses a race, the packet goes straight to the global list —
  // never dropped.
  Packet* spill[kMagazineCapacity / 2];
  const std::size_t n = mag.q.try_pop_n(spill, kMagazineCapacity / 2);
  for (std::size_t i = 0; i < n; ++i) push_global(spill[i]);
  if (mag.q.try_push(p)) return;
  push_global(p);
}

bool PacketPool::owns(const Packet* p) const noexcept {
  return p >= slab_.get() && p < slab_.get() + capacity_;
}

}  // namespace sfc::pkt
