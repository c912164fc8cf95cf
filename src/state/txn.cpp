#include "state/txn.hpp"

#include "obs/prof.hpp"

namespace sfc::state {

std::array<std::uint64_t, kMaxPartitions> TxnContext::sequence_snapshot()
    const noexcept {
  return seq_;
}

void TxnContext::restore_sequences(
    const std::array<std::uint64_t, kMaxPartitions>& seqs) {
  seq_ = seqs;
}

Txn::Txn(TxnContext& ctx, std::uint64_t ts)
    : ctx_(ctx),
      slot_(this_thread_slot()),
      ts_(ts),
      fast_(ctx.shard_affine_ && ctx.claim_owner(&slot_)) {
  slot_.ts.store(ts_, std::memory_order_relaxed);
  slot_.wounded.store(false, std::memory_order_relaxed);
  if (ctx.shard_affine_ && !fast_) {
    // Non-owner thread transacting on a shard-affine context: take the
    // locked path and flag it — in shipped wiring only the single data
    // worker transacts, so this is a quiet-mode violation.
    ctx.owner_misses_.fetch_add(1, std::memory_order_relaxed);
    obs::prof_count(obs::ProfCounter::kOwnerMiss);
  }
}

Txn::~Txn() {
  if (!finished_) rollback();
}

void Txn::check_wounded() {
  // Only meaningful while we hold at least one lock: a transaction that
  // holds nothing cannot be blocking anyone. Owner-hit shard transactions
  // hold no locks and cannot be wounded.
  if (!fast_ && locked_mask_ != 0 &&
      slot_.wounded.load(std::memory_order_acquire)) {
    ctx_.aborts_.fetch_add(1, std::memory_order_relaxed);
    throw TxnAborted{};
  }
}

std::size_t Txn::acquire(Key key) {
  ++accesses_;
  const std::size_t p = ctx_.store_.partition_of(key);
  const std::uint64_t bit = 1ULL << p;
  if (fast_) {
    // Owner hit: the single-writer discipline makes the partition ours by
    // construction — just track the touched set for the dependency vector.
    locked_mask_ |= bit;
    return p;
  }
  if ((locked_mask_ & bit) == 0) {
    if (!ctx_.store_.partition_lock(p).lock(&slot_)) {
      ctx_.aborts_.fetch_add(1, std::memory_order_relaxed);
      throw TxnAborted{};
    }
    locked_mask_ |= bit;
  }
  check_wounded();
  return p;
}

const StateUpdate* Txn::find_buffered(Key key) const noexcept {
  // The write set is tiny (middleboxes write 1-2 keys per packet), so a
  // backwards linear scan finds the latest buffered value fastest.
  for (std::size_t i = writes_.size(); i > 0; --i) {
    if (writes_[i - 1].key == key) return &writes_[i - 1];
  }
  return nullptr;
}

BytesView Txn::peek(Key key) {
  acquire(key);
  if (const StateUpdate* buffered = find_buffered(key)) {
    return buffered->erase ? BytesView{} : BytesView(buffered->value);
  }
  return ctx_.store_.get_locked(key);
}

std::optional<Bytes> Txn::read(Key key) {
  if (const BytesView v = peek(key)) return Bytes(v.span());
  return std::nullopt;
}

bool Txn::contains(Key key) {
  acquire(key);
  if (const StateUpdate* buffered = find_buffered(key)) return !buffered->erase;
  return static_cast<bool>(ctx_.store_.get_locked(key));
}

void Txn::write(Key key, Bytes value) {
  acquire(key);
  writes_.push_back(StateUpdate{key, std::move(value), false});
}

void Txn::erase(Key key) {
  acquire(key);
  writes_.push_back(StateUpdate{key, Bytes{}, true});
}

std::uint64_t Txn::fetch_add(Key key, std::uint64_t delta) {
  // One read and one write, as the access count (and FTMB's PALs) see it;
  // the read does not copy the stored value.
  const std::uint64_t next = peek(key).as<std::uint64_t>() + delta;
  write(key, Bytes::of(next));
  return next;
}

void Txn::dedupe_writes() noexcept {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < writes_.size(); ++i) {
    std::size_t j = 0;
    while (j < kept && writes_[j].key != writes_[i].key) ++j;
    if (j != i) writes_[j] = std::move(writes_[i]);
    if (j == kept) ++kept;
  }
  while (writes_.size() > kept) writes_.pop_back();
}

TxnRecord Txn::commit() {
  check_wounded();
  TxnRecord record;
  record.touched_mask = locked_mask_;
  record.accesses = accesses_;

  if (!writes_.empty()) {
    // Only the final value per key is replicated (program order preserved
    // for distinct keys). One write, the common case, has nothing to merge.
    if (writes_.size() > 1) dedupe_writes();

    if (fast_) {
      // Owner-hit commit: no locks, no atomic RMW — apply inside the
      // seqlock write section so stats readers snapshot consistently and
      // get() readers inherit the happens-before from the version bump.
      ctx_.store_.owner_write_begin(record.touched_mask);
      for (const auto& w : writes_) {
        if (w.erase) {
          ctx_.store_.erase_owner(w.key);
        } else {
          ctx_.store_.put_owner(w.key, w.value);
        }
      }
      for (std::size_t p = 0; p < kMaxPartitions; ++p) {
        if (record.touched_mask & (1ULL << p)) {
          record.seqs[p] = ++ctx_.seq_[p];
        }
      }
      ctx_.store_.owner_write_end(record.touched_mask);
    } else {
      for (const auto& w : writes_) {
        if (w.erase) {
          ctx_.store_.erase_locked(w.key);
        } else {
          ctx_.store_.put_locked(w.key, w.value);
        }
      }
      // Bump the dependency vector for every touched partition — read or
      // written (paper §4.3) — while still holding the locks, so the
      // sequence numbers map this transaction to a valid serial order.
      for (std::size_t p = 0; p < kMaxPartitions; ++p) {
        if (record.touched_mask & (1ULL << p)) {
          record.seqs[p] = ++ctx_.seq_[p];
        }
      }
    }
    record.writes = std::move(writes_);
  }

  committed_ = true;
  finished_ = true;
  release_locks();
  return record;
}

void Txn::rollback() noexcept {
  finished_ = true;
  writes_.clear();
  release_locks();
}

void Txn::release_locks() noexcept {
  if (fast_) {
    // Nothing was locked; the mask only tracked the touched set.
    locked_mask_ = 0;
    return;
  }
  for (std::size_t p = 0; p < kMaxPartitions; ++p) {
    if (locked_mask_ & (1ULL << p)) ctx_.store_.partition_lock(p).unlock();
  }
  locked_mask_ = 0;
  slot_.wounded.store(false, std::memory_order_relaxed);
}

}  // namespace sfc::state
