#include "core/stores.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/prof.hpp"
#include "runtime/worker.hpp"

namespace sfc::ftc {

namespace {

// Failover transfer blob: store contents, then the MAX / dependency
// vector, then the retained log history as wire records (put_history). The
// format is shared by HeadStore and InOrderApplier because a failed head is
// restored FROM its successor's applier and vice versa (paper §5.2).
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 4);
}

bool take_u32(std::span<const std::uint8_t>& in, std::uint32_t& v) {
  if (in.size() < 4) return false;
  std::memcpy(&v, in.data(), 4);
  in = in.subspan(4);
  return true;
}

void put_vector(std::vector<std::uint8_t>& out, const MaxVector& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.seq.data());
  out.insert(out.end(), p, p + sizeof(v.seq));
}

bool take_vector(std::span<const std::uint8_t>& in, MaxVector& v) {
  if (in.size() < sizeof(v.seq)) return false;
  std::memcpy(v.seq.data(), in.data(), sizeof(v.seq));
  in = in.subspan(sizeof(v.seq));
  return true;
}

/// True when @p commit covers the log record at @p rec: its mask and
/// sequence numbers are read straight off the wire bytes.
bool covers_record(const MaxVector& commit, const std::uint8_t* rec) noexcept {
  std::uint64_t mask = 0;
  std::memcpy(&mask, rec + 4, 8);
  const std::uint8_t* seq = rec + 12;
  for (std::uint64_t m = mask; m != 0; m &= m - 1, seq += 8) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    std::uint64_t s = 0;
    std::memcpy(&s, seq, 8);
    if (s > commit.seq[p]) return false;
  }
  return true;
}

/// The history section of a fetch blob: a u32 record count, then the wire
/// records back to back, up to the blob's end. The count makes a blob cut
/// at a record boundary fail like any other truncation.
void put_history(std::vector<std::uint8_t>& out, const LogHistory& history) {
  const std::size_t count_at = out.size();
  put_u32(out, 0);
  const auto count =
      static_cast<std::uint32_t>(history.append_after(MaxVector{}, out));
  std::memcpy(out.data() + count_at, &count, 4);
}

/// Writes a whole fetch blob straight into @p out: one reservation sized
/// for every section, so no later append moves the sections already
/// written; the store section's length is back-patched like the history's
/// count.
void put_blob(std::vector<std::uint8_t>& out, state::StateStore& store,
              const MaxVector& max, const LogHistory& history) {
  out.reserve(out.size() + 4 + store.serialized_size() + sizeof(max.seq) +
              4 + history.live_bytes());
  const std::size_t len_at = out.size();
  put_u32(out, 0);
  store.serialize(out);
  const auto len = static_cast<std::uint32_t>(out.size() - len_at - 4);
  std::memcpy(out.data() + len_at, &len, 4);
  put_vector(out, max);
  put_history(out, history);
}

/// Restores a fetched store section (put_blob's first).
bool take_store(std::span<const std::uint8_t>& in, state::StateStore& store) {
  std::uint32_t len = 0;
  if (!take_u32(in, len) || in.size() < len ||
      !store.deserialize(in.first(len))) {
    return false;
  }
  in = in.subspan(len);
  return true;
}

/// Restores a fetched history section. Every record is checked before any
/// is kept: the blob comes from another node.
bool restore_history(std::span<const std::uint8_t> in, LogHistory& history) {
  std::uint32_t count = 0;
  std::vector<WireLog> logs;
  if (!take_u32(in, count) || !open_wire_records(in, logs) ||
      logs.size() != count) {
    return false;
  }
  for (const auto& log : logs) history.record(log.bytes());
  return true;
}

}  // namespace

void LogHistory::record(std::span<const std::uint8_t> rec) {
  LockGuard lock(mutex_);
  std::memcpy(push_record(rec.size()), rec.data(), rec.size());
  evict_over_capacity();
}


std::uint8_t* LogHistory::push_record(std::size_t len) {
  if (count_ == index_.size()) {
    // Grow the index ring, oldest entry first.
    std::vector<Entry> grown(std::max<std::size_t>(16, 2 * index_.size()));
    for (std::size_t i = 0; i < count_; ++i) grown[i] = entry(i);
    index_.swap(grown);
    first_ = 0;
  }
  reserve_bytes(len);
  std::uint8_t* at = bytes_.data() + (tail_ - base_);
  entry(count_) = Entry{tail_, static_cast<std::uint32_t>(len)};
  ++count_;
  tail_ += len;
  return at;
}

void LogHistory::evict_over_capacity() {
  if (count_ > capacity_) {
    pop_oldest();
    if (evicted_ != nullptr) evicted_->inc();
  }
}

void LogHistory::prune(const MaxVector& commit) {
  LockGuard lock(mutex_);
  while (count_ != 0 && covers_record(commit, bytes_at(entry(0).pos))) {
    pop_oldest();
  }
}

std::size_t LogHistory::append_after(const MaxVector& from,
                                     std::vector<std::uint8_t>& out) const {
  LockGuard lock(mutex_);
  std::size_t appended = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const Entry& e = entry(i);
    const std::uint8_t* rec = bytes_at(e.pos);
    if (covers_record(from, rec)) continue;
    out.insert(out.end(), rec, rec + e.len);
    ++appended;
  }
  return appended;
}

void LogHistory::pop_oldest() {
  head_ += entry(0).len;
  first_ = (first_ + 1) & (index_.size() - 1);
  if (--count_ == 0) base_ = head_;  // Empty: the next record starts at 0.
}

void LogHistory::reserve_bytes(std::size_t need) {
  if (tail_ - base_ + need <= bytes_.size()) return;
  const std::size_t live = tail_ - head_;
  if (live + need <= bytes_.size() / 2) {
    // Half empty: move the live records to the front instead of growing.
    std::memmove(bytes_.data(), bytes_at(head_), live);
  } else {
    std::vector<std::uint8_t> grown(
        std::max({2 * bytes_.size(), 2 * (live + need), std::size_t{1024}}));
    if (live != 0) std::memcpy(grown.data(), bytes_at(head_), live);
    bytes_.swap(grown);
  }
  base_ = head_;
}

std::span<const std::uint8_t> HeadStore::record_log(
    const state::TxnRecord& record, LogRecordBuffer& out) {
  if (record.read_only()) return {};
  const std::span<const state::StateUpdate> writes{record.writes.data(),
                                                   record.writes.size()};
  out.resize_uninitialized(log_size(record.touched_mask, writes));
  encode_log(out.data(), mbox_, record.touched_mask, record.seqs, writes);
  const std::span<const std::uint8_t> rec{out.data(), out.size()};
  history_.record(rec);
  return rec;
}

void HeadStore::serialize(std::vector<std::uint8_t>& out) {
  MaxVector deps;
  deps.seq = txn_ctx_.sequence_snapshot();
  put_blob(out, store_, deps, history_);
}

bool HeadStore::deserialize(std::span<const std::uint8_t> in) {
  if (!take_store(in, store_)) return false;
  MaxVector deps;
  if (!take_vector(in, deps)) return false;
  // Paper §5.2: the new head adopts the fetched MAX as its dependency
  // vector, so the next transactions continue the sequence numbers.
  txn_ctx_.restore_sequences(deps.seq);
  return restore_history(in, history_);
}

LogFit InOrderApplier::classify_pending(const DepVector& dep,
                                        std::uint64_t& pending) const noexcept {
  pending = 0;
  for (std::uint64_t m = dep.mask; m != 0; m &= m - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    // The frontier is the applied seq OR the highest seq already admitted
    // into a handoff ring: an in-flight portion counts as covered (its
    // owner is guaranteed to drain it), so a batch of consecutive logs
    // offered from one thread classifies applicable log after log instead
    // of stalling on the first enqueue.
    const auto s = pseq_[p].load(std::memory_order_acquire);
    const auto f = std::max(s, enq_seq_[p].load(std::memory_order_acquire));
    if (dep.seq[p] <= f) continue;  // applied, or in flight to its owner
    if (dep.seq[p] != f + 1) return LogFit::kFuture;
    pending |= 1ULL << p;
  }
  return pending == 0 ? LogFit::kDuplicate : LogFit::kApplicable;
}

bool InOrderApplier::route_portions(const WireLog& log, std::uint64_t pending,
                                    std::uint64_t& mine) {
  const DepVector& dep = log.dep;
  const std::uint32_t self = rt::current_shard();
  const std::size_t producer =
      self == rt::kNoShard ? mesh_.producers() - 1 : self;

  // Split the pending portion by owning worker. One handoff entry per
  // foreign owner aggregates all of that owner's partitions. An owned
  // partition applies directly ONLY when nothing is in flight for it
  // (enq <= pseq): applying over an undrained ring entry would reorder
  // seqs, so the owner routes through its own ring (SPSC with itself on
  // both ends) and the drain restores order.
  mine = 0;
  std::uint64_t theirs[state::ShardMap::kMaxWorkers] = {};
  for (std::uint64_t m = pending; m != 0; m &= m - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    const auto owner = shard_map_.owner_of(p);
    if (owner == self &&
        enq_seq_[p].load(std::memory_order_relaxed) <=
            pseq_[p].load(std::memory_order_relaxed)) {
      mine |= 1ULL << p;
    } else {
      theirs[owner] |= 1ULL << p;
    }
  }
  if (mine == pending) return true;  // fully owned: nothing to enqueue

  // All-or-nothing admission: as this thread is each target ring's only
  // producer, a positive free-slot pre-check cannot be invalidated before
  // our push, so either every portion is admitted or the whole log holds.
  for (std::uint32_t o = 0; o < shard_map_.num_workers(); ++o) {
    if (theirs[o] != 0 && !mesh_.can_push(producer, o)) return false;
  }
  for (std::uint32_t o = 0; o < shard_map_.num_workers(); ++o) {
    if (theirs[o] == 0) continue;
    StateHandoff h;
    h.applier = this;
    h.dep = dep;
    h.portion = theirs[o];
    for_each_wire_write(log, [&](const state::WireUpdate& u) {
      const auto p = store_.partition_of(u.key);
      if ((theirs[o] >> p) & 1u) {
        h.writes.push_back(state::StateUpdate{
            u.key, state::Bytes(u.value.data(), u.value.size()), u.erase});
      }
    });
    mesh_.push(producer, o, std::move(h));
    obs::prof_count(obs::ProfCounter::kHandoffPush);
    // Advance the enqueued frontier AFTER the push: a thread that observes
    // the new frontier and enqueues seq+1 is guaranteed the seq entry is
    // already poppable, so an owner that drains its rings to exhaustion
    // can always resolve in-flight chains.
    for (std::uint64_t m = theirs[o]; m != 0; m &= m - 1) {
      const auto p = static_cast<std::size_t>(std::countr_zero(m));
      std::uint64_t cur = enq_seq_[p].load(std::memory_order_relaxed);
      while (cur < dep.seq[p] &&
             !enq_seq_[p].compare_exchange_weak(cur, dep.seq[p],
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
      }
    }
  }
  return true;
}

InOrderApplier::Offer InOrderApplier::offer(const WireLog& log) {
  std::uint64_t pending = 0;
  switch (classify_pending(log.dep, pending)) {
    case LogFit::kDuplicate:
      return Offer::kDuplicate;
    case LogFit::kFuture:
      return Offer::kHeld;
    case LogFit::kApplicable:
      break;
  }
  std::uint64_t mine = 0;
  if (!route_portions(log, pending, mine)) {
    return Offer::kHeld;
  }
  if (mine != 0) {
    // Owner-hit fast path: copy applicable writes straight from the wire
    // into the store — no lock, no atomic RMW, one seqlock version bump
    // per touched partition.
    rt::SmallVector<state::WireUpdate, 16> updates;
    for_each_wire_write(log, [&](const state::WireUpdate& u) {
      updates.push_back(u);
    });
    store_.apply_wire_owner({updates.data(), updates.size()}, mine);
    advance_pseq(log.dep, mine);
  }
  history_.record(log.bytes());
  applied_.fetch_add(1, std::memory_order_release);
  return Offer::kApplied;
}

bool InOrderApplier::apply_handoff(StateHandoff& h) {
  // Re-classify each portion against pseq. Stale bits (racing producers
  // can enqueue duplicates of the same (partition, seq) portion; first
  // drain wins) and applied bits clear; future bits (predecessor seq in a
  // different ring of the same owner — rings are FIFO per producer, not
  // across producers) stay set for the caller to defer and retry.
  std::uint64_t fresh = 0;
  std::uint64_t future = 0;
  for (std::uint64_t m = h.portion; m != 0; m &= m - 1) {
    const auto p = static_cast<std::size_t>(std::countr_zero(m));
    const auto s = pseq_[p].load(std::memory_order_relaxed);
    if (h.dep.seq[p] == s + 1) {
      fresh |= 1ULL << p;
    } else if (h.dep.seq[p] > s + 1) {
      future |= 1ULL << p;
    }
  }
  if (fresh != 0) {
    store_.apply_owner({h.writes.data(), h.writes.size()}, fresh);
    advance_pseq(h.dep, fresh);
  }
  h.portion = future;
  return future == 0;
}

void InOrderApplier::serialize(std::vector<std::uint8_t>& out) {
  put_blob(out, store_, max(), history_);
}

bool InOrderApplier::deserialize(std::span<const std::uint8_t> in) {
  if (!take_store(in, store_)) return false;
  MaxVector restored;
  if (!take_vector(in, restored)) return false;
  if (!restore_history(in, history_)) return false;
  // Recovery runs quiesced (workers drained, control has exclusivity);
  // the restored vector seeds the per-partition sequences directly.
  for (std::size_t p = 0; p < state::kMaxPartitions; ++p) {
    pseq_[p].store(restored.seq[p], std::memory_order_release);
    enq_seq_[p].store(restored.seq[p], std::memory_order_release);
  }
  applied_.fetch_add(1, std::memory_order_release);
  return true;
}

}  // namespace sfc::ftc
