// Test-only reference models for the wire-form log path.
//
// Production keeps every piggyback log in its wire encoding, from the head
// through the histories to NACK replies and state fetches. The tests still
// want to write logs as PiggybackLog values and compare results as values,
// so this header holds the materializing side: encode a PiggybackLog into
// its wire record, decode records back into owning logs, and two
// differential oracles that never touch the wire apply path: an applier
// that classifies each PiggybackLog and applies its decoded writes with
// state::apply_locked, and a deque-of-logs history for the wire-form
// LogHistory.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/piggyback.hpp"
#include "core/stores.hpp"
#include "runtime/worker.hpp"
#include "state/partition_lock.hpp"
#include "state/shard_map.hpp"
#include "state/state_store.hpp"

namespace sfc::state {

/// Applies a batch of updates under partition locks: takes the touched
/// partitions' locks in index order (deadlock-free against other
/// appliers), applies in order, releases. The locked counterpart of the
/// owner path (StateStore::apply_owner) that replicas use.
inline void apply_locked(StateStore& store,
                         std::span<const StateUpdate> updates) {
  std::uint64_t mask = 0;
  for (const auto& u : updates) mask |= 1ULL << store.partition_of(u.key);
  TxnSlot& slot = this_thread_slot();
  for (std::size_t p = 0; p < store.num_partitions(); ++p) {
    if (mask & (1ULL << p)) store.partition_lock(p).lock_apply(&slot);
  }
  for (const auto& u : updates) {
    if (u.erase) {
      store.erase_locked(u.key);
    } else {
      store.put_locked(u.key, u.value);
    }
  }
  for (std::size_t p = 0; p < store.num_partitions(); ++p) {
    if (mask & (1ULL << p)) store.partition_lock(p).unlock();
  }
}

}  // namespace sfc::state

namespace sfc::ftc {

/// Copies one wire log into an owning PiggybackLog.
inline PiggybackLog materialize_log(const WireLog& wire) {
  PiggybackLog log;
  log.mbox = wire.mbox;
  log.dep = wire.dep;
  for_each_wire_write(wire, [&](const state::WireUpdate& u) {
    state::StateUpdate s;
    s.key = u.key;
    s.erase = u.erase;
    s.value.assign(u.value);
    log.writes.push_back(std::move(s));
  });
  return log;
}

/// @p log's wire record from the record encoder a head uses, so exactly
/// what a head records and appends for the same log. Unlike a view, it has
/// no frame to fit.
inline std::vector<std::uint8_t> wire_record(const PiggybackLog& log) {
  const std::span<const state::StateUpdate> writes{log.writes.data(),
                                                   log.writes.size()};
  std::vector<std::uint8_t> out(log_size(log.dep.mask, writes));
  encode_log(out.data(), log.mbox, log.dep.mask, log.dep.seq, writes);
  return out;
}

/// Records @p record in @p head's history through HeadStore::record_log
/// and returns the log decoded from the bytes it produced (a default log
/// for a read-only transaction, which has none).
inline PiggybackLog record_log(HeadStore& head,
                               const state::TxnRecord& record) {
  LogRecordBuffer buf;
  const auto rec = head.record_log(record, buf);
  if (rec.empty()) return {};
  return materialize_log(
      decode_record(rec.data(), static_cast<std::uint32_t>(rec.size())));
}

/// Records back to back (a NACK reply body, a fetched history section)
/// decoded into owning logs. Empty when any record is malformed.
inline std::vector<PiggybackLog> materialize_records(
    std::span<const std::uint8_t> records) {
  std::vector<WireLog> wire;
  if (!open_wire_records(records, wire)) return {};
  std::vector<PiggybackLog> out;
  for (const auto& w : wire) out.push_back(materialize_log(w));
  return out;
}

/// The ownership map and handoff mesh of a one-worker node. A base of
/// SoloApplier, so both are built before the applier that refers to them.
struct OneWorkerShards {
  explicit OneWorkerShards(const ChainConfig& cfg)
      : map(cfg.num_partitions, 1), mesh(2, 1, cfg.handoff_capacity) {}
  state::ShardMap map;
  StateHandoffMesh mesh;
};

/// A replica applier as a one-worker node builds it, offered as that
/// worker: worker 0 owns every partition, so each applicable log lands in
/// the store within the offer, with nothing left in the mesh to drain.
class SoloApplier : private OneWorkerShards, public InOrderApplier {
 public:
  SoloApplier(MboxId mbox, const ChainConfig& cfg)
      : OneWorkerShards(cfg), InOrderApplier(mbox, cfg, map, mesh) {}

  Offer offer(const WireLog& log) {
    const std::uint32_t self = rt::current_shard();
    rt::set_current_shard(0);
    const Offer r = InOrderApplier::offer(log);
    rt::set_current_shard(self);
    return r;
  }
};

/// Encodes @p log and offers it through the production wire apply path
/// (InOrderApplier::offer), as a replica receives it: an InOrderApplier
/// offers from the calling thread's shard identity (rt::current_shard), a
/// SoloApplier as its worker 0. The applier is the code under test here,
/// not an oracle.
template <typename Applier>
InOrderApplier::Offer offer(Applier& a, const PiggybackLog& log) {
  const std::vector<std::uint8_t> rec = wire_record(log);
  return a.offer(decode_record(rec.data(),
                               static_cast<std::uint32_t>(rec.size())));
}

/// The materializing log history: owning logs in a deque, pruned and
/// evicted exactly as LogHistory is specified. Differential oracle.
class MaterializingHistory {
 public:
  explicit MaterializingHistory(std::size_t capacity) : capacity_(capacity) {}

  void record(const PiggybackLog& log) {
    logs_.push_back(log);
    if (logs_.size() > capacity_) {
      logs_.pop_front();
      ++evicted_;
    }
  }

  void prune(const MaxVector& commit) {
    while (!logs_.empty() && commit.covers(logs_.front().dep)) {
      logs_.pop_front();
    }
  }

  std::vector<PiggybackLog> logs_after(const MaxVector& from) const {
    std::vector<PiggybackLog> out;
    for (const auto& log : logs_) {
      if (!from.covers(log.dep)) out.push_back(log);
    }
    return out;
  }

  std::size_t size() const { return logs_.size(); }
  std::uint64_t evicted() const { return evicted_; }

 private:
  std::size_t capacity_;
  std::deque<PiggybackLog> logs_;
  std::uint64_t evicted_{0};
};

/// The materializing apply (paper Fig. 3, one thread): classify each
/// owning log against one MAX vector, advance it, and apply the decoded
/// writes with state::apply_locked. Differential oracle for
/// InOrderApplier's per-partition sequences, owner-path apply and handoff
/// routing; serialize() writes the fetch blob an InOrderApplier with the
/// same logs must write.
class MaterializingApplier {
 public:
  explicit MaterializingApplier(const ChainConfig& cfg)
      : store_(cfg.num_partitions), history_(cfg.history_capacity) {}

  InOrderApplier::Offer offer(const PiggybackLog& log) {
    switch (classify(max_, log.dep)) {
      case LogFit::kDuplicate:
        return InOrderApplier::Offer::kDuplicate;
      case LogFit::kFuture:
        return InOrderApplier::Offer::kHeld;
      case LogFit::kApplicable:
        break;
    }
    max_.advance(log.dep);
    state::apply_locked(store_, log.writes);
    history_.record(log);
    ++applied_;
    return InOrderApplier::Offer::kApplied;
  }

  /// Store blob length and bytes, the MAX vector, then the history as a
  /// record count and the records back to back.
  void serialize(std::vector<std::uint8_t>& out) {
    std::vector<std::uint8_t> store_blob;
    store_.serialize(store_blob);
    put_u32(out, static_cast<std::uint32_t>(store_blob.size()));
    out.insert(out.end(), store_blob.begin(), store_blob.end());
    const auto* seq = reinterpret_cast<const std::uint8_t*>(max_.seq.data());
    out.insert(out.end(), seq, seq + sizeof(max_.seq));
    const auto logs = history_.logs_after(MaxVector{});
    put_u32(out, static_cast<std::uint32_t>(logs.size()));
    for (const auto& log : logs) {
      const auto rec = wire_record(log);
      out.insert(out.end(), rec.begin(), rec.end());
    }
  }

  state::StateStore& store() { return store_; }
  const MaxVector& max() const { return max_; }
  std::uint64_t applied_count() const { return applied_; }

 private:
  static void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    out.insert(out.end(), p, p + 4);
  }

  state::StateStore store_;
  MaxVector max_;
  MaterializingHistory history_;
  std::uint64_t applied_{0};
};

/// What the wire-form @p history would send for a NACK from @p from,
/// decoded into owning logs.
inline std::vector<PiggybackLog> logs_after(const LogHistory& history,
                                            const MaxVector& from) {
  std::vector<std::uint8_t> body;
  history.append_after(from, body);
  return materialize_records(body);
}

}  // namespace sfc::ftc
