// Per-partition lock with wound-wait deadlock avoidance.
//
// Two kinds of critical sections take this lock:
//  * head-side packet transactions (strict 2PL: held until commit), and
//  * replica-side log application (short, ordered acquisition).
//
// Each thread of control owns a persistent TxnSlot carrying its current
// transaction timestamp and a wound flag. The lock stores a pointer to the
// owner's slot. A contender that is *older* (smaller timestamp) wounds the
// owner by setting the owner's flag; the owner observes it at its next
// state access and aborts, releasing its locks. A younger contender waits.
// Replica appliers use timestamp 0 (older than every transaction) so they
// are never wounded and never stall behind a long transaction for long.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "base/lock_rank.hpp"
#include "base/thread_annotations.hpp"
#include "obs/prof.hpp"
#include "runtime/common.hpp"

namespace sfc::state {

/// Identity of a thread of control for wound-wait purposes. Each thread's
/// slot is allocated once and never freed, so dereferencing a stale owner
/// pointer is safe even after the owner thread exited.
struct TxnSlot {
  std::atomic<std::uint64_t> ts{0};
  std::atomic<bool> wounded{false};
};

/// The calling thread's slot (one per thread, reused across transactions).
TxnSlot& this_thread_slot() noexcept;

class SFC_CAPABILITY("mutex") alignas(rt::kCacheLineSize) PartitionLock {
 public:
  /// Wound-wait acquisition for the transaction identified by @p self.
  /// Returns false if @p self was wounded while waiting (the caller must
  /// abort; the lock was NOT acquired).
  bool lock(TxnSlot* self) noexcept SFC_TRY_ACQUIRE(true) {
    // Rank discipline: partition locks sit at ranks::kPartition; same-rank
    // nesting is sanctioned (wound-wait makes arbitrary-order multi-lock
    // deadlock-free), any other rank must already be higher.
    lockrank::check_acquire(this, ranks::kPartition, "state.partition",
                            SameRank::kWoundWait);
    bool saw_owner = false;
    for (unsigned spins = 0;; ++spins) {
      TxnSlot* expected = nullptr;
      // Success is acq_rel: acquire pairs with unlock()'s release (lock
      // semantics), release publishes `self` — a TLS-resident slot — so a
      // contender that loses the CAS and dereferences the owner pointer on
      // the wound path is ordered after the owner thread's initialization.
      // Failure is acquire for exactly that dereference.
      if (owner_.compare_exchange_weak(expected, self,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        lockrank::note_held(this, ranks::kPartition, "state.partition",
                            SameRank::kWoundWait);
        // Contention accounting (obs/prof): an acquisition is "contended"
        // when a CAS attempt lost to a live owner (spurious weak-CAS
        // failures do not count). One load + branch when no profiler is
        // installed.
        if (SFC_UNLIKELY(obs::hot_profiler() != nullptr)) {
          obs::prof_count(obs::ProfCounter::kPartitionLockAcquire);
          if (saw_owner) {
            obs::prof_count(obs::ProfCounter::kPartitionLockContended);
          }
        }
        return true;
      }
      if (expected != nullptr) saw_owner = true;
      if (expected != nullptr &&
          self->ts.load(std::memory_order_relaxed) <
              expected->ts.load(std::memory_order_relaxed)) {
        expected->wounded.store(true, std::memory_order_release);
      }
      if (self->wounded.load(std::memory_order_acquire)) return false;
      // Spin briefly, then yield: on an oversubscribed (or single-core)
      // host a pure spin starves the descheduled owner and livelocks.
      if (spins < 64) {
        rt::cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

  /// Non-wound acquisition for replica appliers: the slot's timestamp is 0,
  /// so the caller can never be wounded and this always succeeds.
  void lock_apply(TxnSlot* self) noexcept SFC_ACQUIRE() {
    self->ts.store(0, std::memory_order_relaxed);
    self->wounded.store(false, std::memory_order_relaxed);
    (void)lock(self);
  }

  void unlock() noexcept SFC_RELEASE() {
    lockrank::note_release(this);
    owner_.store(nullptr, std::memory_order_release);
  }

  bool held() const noexcept {
    return owner_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  std::atomic<TxnSlot*> owner_{nullptr};
};

}  // namespace sfc::state
