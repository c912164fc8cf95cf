// Per-server replication state: the head store (the middlebox's own state
// plus transaction machinery and the log history used to serve
// retransmissions) and in-order appliers (one per predecessor middlebox
// this server replicates).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "base/mutex.hpp"
#include "core/config.hpp"
#include "core/dep_vector.hpp"
#include "core/piggyback.hpp"
#include "obs/registry.hpp"
#include "runtime/small_vector.hpp"
#include "state/handoff_ring.hpp"
#include "state/shard_map.hpp"
#include "state/txn.hpp"

namespace sfc::ftc {

class InOrderApplier;

/// One cross-shard portion of a log in flight to its owning worker: the
/// full dep vector (drain re-classifies against it so racing duplicate
/// enqueues stale-skip), the sub-mask of partitions destined for this
/// owner, and the writes materialized and filtered to those partitions.
struct StateHandoff {
  InOrderApplier* applier{nullptr};
  DepVector dep{};
  std::uint64_t portion{0};
  state::WriteSet writes;
};

using StateHandoffMesh = state::HandoffMesh<StateHandoff>;

/// Bounded per-store history of piggyback logs, kept for retransmission to
/// successors; pruned by the group tail's commit notices (paper §4.1/§5.1),
/// which reach every group member, so the history holds only logs not yet
/// f+1-replicated. The capacity is a memory backstop: a log evicted there
/// can no longer serve a NACK, so each eviction bumps @p evicted.
///
/// Logs stay in their piggyback wire encoding (PiggybackView::log_bytes):
/// one byte FIFO holds the records back to back and an index ring their
/// (position, length). Both grow on demand and keep their capacity, so a
/// history in steady state allocates nothing; nothing is reserved up
/// front, and the capacity is a cap, not a reservation.
class LogHistory {
 public:
  explicit LogHistory(std::size_t capacity, obs::Counter* evicted = nullptr)
      : capacity_(capacity), evicted_(evicted) {}

  /// Appends one wire record (copied): a replica keeps each applied log
  /// as it arrived, a head each log it emits, including one no frame can
  /// carry.
  void record(std::span<const std::uint8_t> rec) SFC_EXCLUDES(mutex_);

  /// Drops the covered prefix: every log from the oldest up to the first
  /// that @p commit does not cover. Reads the mask and sequence numbers
  /// straight off each record.
  void prune(const MaxVector& commit) SFC_EXCLUDES(mutex_);

  /// Appends the records not covered by @p from, in order and back to
  /// back, to @p out (a NACK reply body; with an empty @p from, the whole
  /// history for a state fetch). Returns how many it appended.
  std::size_t append_after(const MaxVector& from,
                           std::vector<std::uint8_t>& out) const
      SFC_EXCLUDES(mutex_);

  std::size_t size() const {
    LockGuard lock(mutex_);
    return count_;
  }
  /// Bytes of the live records: what append_after appends for an empty
  /// MAX vector (a state fetch).
  std::size_t live_bytes() const {
    LockGuard lock(mutex_);
    return tail_ - head_;
  }

 private:
  struct Entry {
    std::uint64_t pos;  ///< Stream position of the record's first byte.
    std::uint32_t len;
  };

  const std::uint8_t* bytes_at(std::uint64_t pos) const SFC_REQUIRES(mutex_) {
    return bytes_.data() + (pos - base_);
  }
  Entry& entry(std::size_t i) SFC_REQUIRES(mutex_) {
    return index_[(first_ + i) & (index_.size() - 1)];
  }
  const Entry& entry(std::size_t i) const SFC_REQUIRES(mutex_) {
    return index_[(first_ + i) & (index_.size() - 1)];
  }
  /// Appends an index entry for a @p len-byte record and returns where
  /// its bytes go.
  std::uint8_t* push_record(std::size_t len) SFC_REQUIRES(mutex_);
  /// Drops the oldest record once the history holds more than capacity_.
  void evict_over_capacity() SFC_REQUIRES(mutex_);
  void pop_oldest() SFC_REQUIRES(mutex_);
  /// Makes room for @p need more bytes at the FIFO's end: moves the live
  /// records to the front when they fill at most half of it, else grows it.
  void reserve_bytes(std::size_t need) SFC_REQUIRES(mutex_);

  const std::size_t capacity_;
  obs::Counter* const evicted_;
  mutable Mutex mutex_{ranks::kLeaf, "ftc.log_history"};
  /// Byte FIFO. Stream positions are monotonic; bytes_[0] holds position
  /// base_, the live records span [head_, tail_).
  std::vector<std::uint8_t> bytes_ SFC_GUARDED_BY(mutex_);
  std::uint64_t base_ SFC_GUARDED_BY(mutex_){0};
  std::uint64_t head_ SFC_GUARDED_BY(mutex_){0};
  std::uint64_t tail_ SFC_GUARDED_BY(mutex_){0};
  /// Index ring (power-of-two size): entry(0) is the oldest record.
  std::vector<Entry> index_ SFC_GUARDED_BY(mutex_);
  std::size_t first_ SFC_GUARDED_BY(mutex_){0};
  std::size_t count_ SFC_GUARDED_BY(mutex_){0};
};

/// One head log record, encoded once per committed transaction. A Monitor
/// or NAT record (a few dozen bytes) stays inline; a larger one spills to
/// the heap.
using LogRecordBuffer = rt::SmallVector<std::uint8_t, 256>;

/// The head side of one middlebox's replication group (paper §4.1): the
/// authoritative store, the transactional runtime, and the history of logs
/// this head has emitted.
class HeadStore : rt::NonCopyable {
 public:
  HeadStore(MboxId mbox, const ChainConfig& cfg,
            obs::Counter* history_evicted = nullptr)
      : mbox_(mbox),
        store_(cfg.num_partitions),
        txn_ctx_(store_),
        history_(cfg.history_capacity, history_evicted) {}

  MboxId mbox() const noexcept { return mbox_; }
  state::StateStore& store() noexcept { return store_; }
  state::TxnContext& txn_ctx() noexcept { return txn_ctx_; }

  /// Shard-affine head: the single data worker commits transactions
  /// lock-free (store owner path + txn fast path). Only valid when exactly
  /// one thread transacts; the node enables this at threads_per_node == 1.
  void enable_shard_affine() noexcept {
    store_.enable_shard_affine();
    txn_ctx_.enable_shard_affine();
  }

  /// Encodes a committed transaction as this middlebox's piggyback log
  /// into @p out, once, and records those bytes in the history, so a
  /// successor can NACK for the log wherever, and whether, it travels; the
  /// node copies the same bytes onto the packet. Returns the record, empty
  /// for a read-only transaction (it has no log). @p out is the caller's:
  /// with several head workers the history is shared, so the record must
  /// not be read back out of it.
  std::span<const std::uint8_t> record_log(const state::TxnRecord& record,
                                           LogRecordBuffer& out);

  void prune(const MaxVector& commit) { history_.prune(commit); }

  LogHistory& history() noexcept { return history_; }

  /// Serializes store + dependency vector for failover transfer. Only
  /// called on a quiesced store (the source has stopped admitting
  /// packets).
  void serialize(std::vector<std::uint8_t>& out);
  bool deserialize(std::span<const std::uint8_t> in);

 private:
  MboxId mbox_;
  state::StateStore store_;
  state::TxnContext txn_ctx_;
  LogHistory history_;
};

/// The replica side: applies piggyback logs to a local store in the
/// partial order defined by dependency vectors (paper §4.3, Fig. 3).
///
/// The MAX vector is exploded into per-partition atomic sequences (pseq),
/// so classification never blocks, and each partition has one writer: its
/// owning worker in @p map. Threading contract: offer() is called by the
/// node's data workers, each identified by its shard id
/// (rt::current_shard), and by the node's one control thread (NACK
/// replay, identified by rt::kNoShard, owning no shard). An offering
/// worker applies the portion of a log it owns straight from the wire,
/// lock-free; every other portion travels through @p mesh to its owner,
/// whose drain calls apply_handoff. max() and applied_count() are safe
/// from any thread; serialize/deserialize run only while the node is
/// quiesced.
class InOrderApplier : rt::NonCopyable {
 public:
  InOrderApplier(MboxId mbox, const ChainConfig& cfg,
                 const state::ShardMap& map, StateHandoffMesh& mesh,
                 obs::Counter* history_evicted = nullptr)
      : mbox_(mbox),
        store_(cfg.num_partitions),
        history_(cfg.history_capacity, history_evicted),
        shard_map_(map),
        mesh_(mesh) {
    store_.enable_shard_affine();
  }

  MboxId mbox() const noexcept { return mbox_; }
  state::StateStore& store() noexcept { return store_; }

  enum class Offer : std::uint8_t { kApplied, kDuplicate, kHeld };

  /// Offers one log (a cursor into packet bytes or a NACK reply). kHeld
  /// means a predecessor log is missing, or a target handoff ring is full:
  /// nothing advanced, and the caller's park/drain machinery re-offers it.
  /// An applied log's record is kept in the history for retransmission to
  /// this replica's own successor.
  Offer offer(const WireLog& log);

  /// Applies the ready portion of a drained handoff entry and clears the
  /// applied/stale bits from h.portion. Returns true when the entry is
  /// fully resolved; false leaves the future bits in h.portion — the
  /// predecessor seq is in another ring of the same owner, so the caller
  /// defers the entry and retries once the rest drains. Called only by
  /// the owning worker's drain loop (or under quiesce, when the control
  /// thread temporarily inherits write exclusivity).
  bool apply_handoff(StateHandoff& h);

  /// Current MAX vector (the tail's commit vector when this replica is the
  /// tail of its group), assembled lock-free from the per-partition
  /// sequences INCLUDING the enqueued frontier: a portion admitted into a
  /// handoff ring is durably in this node and guaranteed to apply at the
  /// owner's drain, so announcing it keeps the commit a packet carries
  /// covering the logs that very packet delivered — the invariant the
  /// egress buffer's release depends on. (NACKs built from this vector
  /// correctly skip in-flight logs: they are already here.)
  MaxVector max() const noexcept {
    MaxVector out;
    for (std::size_t p = 0; p < state::kMaxPartitions; ++p) {
      out.seq[p] = std::max(pseq_[p].load(std::memory_order_acquire),
                            enq_seq_[p].load(std::memory_order_acquire));
    }
    return out;
  }

  void prune(const MaxVector& commit) { history_.prune(commit); }

  LogHistory& history() noexcept { return history_; }

  /// Count of successfully applied logs (version counter used by parked-
  /// packet wakeup).
  std::uint64_t applied_count() const noexcept {
    return applied_.load(std::memory_order_acquire);
  }

  /// Serializes store + MAX for failover transfer (quiesced source only).
  void serialize(std::vector<std::uint8_t>& out);
  bool deserialize(std::span<const std::uint8_t> in);

 private:
  /// Per-partition classification against pseq: kDuplicate when every
  /// touched portion is covered, kFuture when any portion skips a
  /// sequence, else applicable with @p pending = the not-yet-applied
  /// sub-mask (handles half-applied cross-shard logs).
  LogFit classify_pending(const DepVector& dep,
                          std::uint64_t& pending) const noexcept;

  /// Offer core: routes @p pending by owner, pre-checks ring capacity
  /// (all-or-nothing), enqueues foreign portions and returns the
  /// caller-owned sub-mask to apply directly (in @p mine). Returns false
  /// when a target ring is full (caller reports kHeld, nothing advanced).
  bool route_portions(const WireLog& log, std::uint64_t pending,
                      std::uint64_t& mine);

  /// Advances pseq for @p mask to the log's sequence numbers (release:
  /// published only after the store apply).
  void advance_pseq(const DepVector& dep, std::uint64_t mask) noexcept {
    for (std::uint64_t m = mask; m != 0; m &= m - 1) {
      const auto p = static_cast<std::size_t>(std::countr_zero(m));
      pseq_[p].store(dep.seq[p], std::memory_order_release);
    }
  }

  MboxId mbox_;
  state::StateStore store_;
  LogHistory history_;
  std::atomic<std::uint64_t> applied_{0};
  const state::ShardMap& shard_map_;
  StateHandoffMesh& mesh_;
  /// Per-partition applied sequence numbers: the MAX vector.
  std::array<std::atomic<std::uint64_t>, state::kMaxPartitions> pseq_{};
  /// Enqueued frontier: highest seq per partition admitted into a handoff
  /// ring (>= pseq while portions are in flight). Classification treats
  /// seqs <= the frontier as covered — without it, a NACK replay batch
  /// would enqueue s+1 and then misclassify s+2 as future (pseq only
  /// advances at the owner's drain) and drop the rest of the batch.
  /// CAS-max maintained on the cross-shard path only; owner-hit applies
  /// never touch it.
  std::array<std::atomic<std::uint64_t>, state::kMaxPartitions> enq_seq_{};
};

}  // namespace sfc::ftc
