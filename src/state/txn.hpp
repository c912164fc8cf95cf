// Transactional packet processing (paper §3.2, §4.2).
//
// Every packet is processed inside a packet transaction: state reads and
// writes go through a Txn, which acquires per-partition locks under strict
// two-phase locking. Lock order is not known in advance, so wound-wait
// (keyed by a per-middlebox monotonically increasing transaction
// timestamp) prevents deadlocks: an older transaction wounds a younger
// lock holder, which aborts at its next state access and is immediately
// re-executed with its original timestamp.
//
// Writes are buffered in the transaction's write set and only applied to
// the store at commit, so aborting is just "release locks and forget".
// Commit — still holding every touched partition's lock — bumps the
// per-partition sequence numbers (the head's data dependency vector,
// paper §4.3) and returns a TxnRecord: exactly the content of a piggyback
// log (touched partitions, their new sequence numbers, the write set).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/small_vector.hpp"
#include "state/state_store.hpp"

namespace sfc::state {

/// Thrown from Txn state accessors when the transaction has been wounded.
/// Callers never catch this themselves: run_transaction() does, rolls the
/// transaction back and re-executes the body.
class TxnAborted : public std::exception {
 public:
  const char* what() const noexcept override {
    return "packet transaction wounded";
  }
};

/// A transaction's write set. Middleboxes write 1-2 keys per packet, so
/// two inline slots cover the common case without allocation.
using WriteSet = rt::SmallVector<StateUpdate, 2>;

/// Result of a committed transaction: the piggyback-log payload.
struct TxnRecord {
  /// Bit i set => partition i was read or written.
  std::uint64_t touched_mask{0};
  /// Post-increment sequence number per touched partition (valid where the
  /// mask bit is set). Read-only transactions leave these untouched.
  std::array<std::uint64_t, kMaxPartitions> seqs{};
  /// The committed write set, in program order.
  WriteSet writes;
  /// Total state accesses (reads + buffered writes) the transaction made —
  /// what the FTMB baseline generates one PAL per.
  std::uint32_t accesses{0};

  bool read_only() const noexcept { return writes.empty(); }
};

/// Per-middlebox-instance transaction context: the store, the timestamp
/// source, and the head's dependency vector (per-partition sequence
/// numbers, each guarded by its partition lock).
class TxnContext : rt::NonCopyable {
 public:
  explicit TxnContext(StateStore& store) : store_(store) { seq_.fill(0); }

  StateStore& store() noexcept { return store_; }

  std::uint64_t next_timestamp() noexcept {
    return next_ts_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Reads the current dependency vector (diagnostic / recovery path; for
  /// an exact snapshot the store must be quiesced).
  std::array<std::uint64_t, kMaxPartitions> sequence_snapshot() const noexcept;

  /// Restores the dependency vector after failover (paper §5.2: the new
  /// head adopts the fetched MAX as every partition's sequence number).
  void restore_sequences(const std::array<std::uint64_t, kMaxPartitions>& seqs);

  /// Aborts observed since construction (wounded + re-executed).
  std::uint64_t aborts() const noexcept {
    return aborts_.load(std::memory_order_relaxed);
  }

  // --- Shard-affine fast path. ------------------------------------------
  /// Enables the lock-free single-writer commit: transactions from the
  /// owning thread skip the partition locks and wound-wait entirely, and
  /// commit through the store's seqlock write section. The store must be
  /// shard-affine. The owner is claimed lazily by the first transacting
  /// thread (one CAS, then a plain load+compare per transaction) and reset
  /// by the node at (re)start; a transaction from any OTHER thread falls
  /// back to the locked path and counts an owner miss — unreachable in
  /// shipped wiring, where only the single data worker transacts.
  void enable_shard_affine() noexcept { shard_affine_ = true; }
  bool shard_affine() const noexcept { return shard_affine_; }

  /// Clears the lazy ownership claim (call while quiesced, e.g. before
  /// worker threads start, so the new data thread can claim).
  void reset_owner() noexcept {
    owner_.store(nullptr, std::memory_order_release);
  }

  /// Transactions that ran on a non-owner thread in shard-affine mode.
  std::uint64_t owner_misses() const noexcept {
    return owner_misses_.load(std::memory_order_relaxed);
  }

 private:
  friend class Txn;

  /// True when the calling thread (identified by its TxnSlot) is — or just
  /// became — the claimed owner.
  bool claim_owner(const void* self) noexcept {
    const void* cur = owner_.load(std::memory_order_relaxed);
    if (cur == self) return true;
    return cur == nullptr && owner_.compare_exchange_strong(
                                 cur, self, std::memory_order_acq_rel);
  }

  StateStore& store_;
  std::atomic<std::uint64_t> next_ts_{1};
  std::array<std::uint64_t, kMaxPartitions> seq_{};
  std::atomic<std::uint64_t> aborts_{0};
  bool shard_affine_{false};
  std::atomic<const void*> owner_{nullptr};
  std::atomic<std::uint64_t> owner_misses_{0};
};

class Txn : rt::NonCopyable {
 public:
  /// Starts a transaction with timestamp @p ts (from ctx.next_timestamp();
  /// re-executions reuse the original timestamp so the transaction
  /// eventually becomes the oldest and cannot be wounded again).
  Txn(TxnContext& ctx, std::uint64_t ts);

  /// Releases locks; discards the write set if not committed.
  ~Txn();

  /// Reads a key (copies the value). Acquires the partition lock.
  std::optional<Bytes> read(Key key);

  /// True if the key exists (same locking as read).
  bool contains(Key key);

  /// Buffers a write.
  void write(Key key, Bytes value);

  /// Buffers an erase.
  void erase(Key key);

  /// Read-modify-write of a uint64 counter; returns the new value.
  /// Missing keys count from 0.
  std::uint64_t fetch_add(Key key, std::uint64_t delta);

  /// Commits: applies buffered writes to the store, bumps the dependency
  /// vector for every touched partition (unless read-only), releases
  /// locks. The Txn must not be used afterwards.
  TxnRecord commit();

  /// Releases locks and discards buffered writes (used after TxnAborted).
  void rollback() noexcept;

  std::uint64_t timestamp() const noexcept { return ts_; }
  bool committed() const noexcept { return committed_; }

 private:
  /// Ensures the partition lock for @p key is held; throws TxnAborted if
  /// wounded.
  std::size_t acquire(Key key);

  void check_wounded();
  void release_locks() noexcept;
  const StateUpdate* find_buffered(Key key) const noexcept;
  /// The current value of @p key, buffered or stored, read in place
  /// (absent when erased or never written). Acquires the partition like
  /// read(); the view is valid until the next write or commit.
  BytesView peek(Key key);
  /// Keeps only the final write per key, in place: each key stays where
  /// it was first written and takes its last value.
  void dedupe_writes() noexcept;

  TxnContext& ctx_;
  TxnSlot& slot_;
  std::uint64_t ts_;
  /// Owner-hit shard-affine transaction: no partition locks, no wound-
  /// wait; locked_mask_ tracks *touched* partitions only.
  const bool fast_;
  std::uint32_t accesses_{0};
  std::uint64_t locked_mask_{0};
  WriteSet writes_;
  bool committed_{false};
  bool finished_{false};
};

/// Runs @p body inside a transaction with the given timestamp, retrying on
/// wound-abort, and returns the committed TxnRecord.
template <typename Body>
TxnRecord run_transaction(TxnContext& ctx, Body&& body, std::uint64_t ts) {
  for (unsigned attempt = 0;; ++attempt) {
    Txn txn(ctx, ts);
    try {
      body(txn);
      return txn.commit();
    } catch (const TxnAborted&) {
      txn.rollback();
      // Re-execute with the original timestamp, but back off first: an
      // immediate retry can re-grab the contested locks before the older
      // (wounding) transaction's CAS lands, livelocking both. Past the
      // first few attempts, yield so the wounding transaction gets CPU
      // time even on an oversubscribed host.
      if (attempt < 4) {
        const unsigned spins = 16u << attempt;
        for (unsigned i = 0; i < spins; ++i) rt::cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }
}

/// Runs @p body inside a transaction, retrying on wound-abort, and returns
/// the committed TxnRecord. This is the middlebox-facing entry point.
template <typename Body>
TxnRecord run_transaction(TxnContext& ctx, Body&& body) {
  return run_transaction(ctx, std::forward<Body>(body), ctx.next_timestamp());
}

}  // namespace sfc::state
