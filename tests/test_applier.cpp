// Tests for HeadStore / InOrderApplier / LogHistory: in-order application,
// holds, duplicates, pruning, retransmission bodies, failover transfer.
#include <gtest/gtest.h>

#include <thread>

#include "core/stores.hpp"
#include "runtime/worker.hpp"
#include "state/shard_map.hpp"
#include "wire_oracle.hpp"

namespace sfc::ftc {
namespace {

ChainConfig test_cfg() {
  ChainConfig cfg;
  cfg.num_partitions = 16;
  cfg.history_capacity = 128;
  return cfg;
}

PiggybackLog log_for(state::StateStore& store, state::Key key,
                     std::uint64_t seq, std::uint64_t value) {
  PiggybackLog log;
  log.mbox = 0;
  const auto p = store.partition_of(key);
  log.dep.mask = 1ULL << p;
  log.dep.seq[p] = seq;
  log.writes.push_back({key, state::Bytes::of(value), false});
  return log;
}

TEST(InOrderApplier, AppliesInOrder) {
  const auto cfg = test_cfg();
  SoloApplier a(0, cfg);
  const state::Key k = 7;
  EXPECT_EQ(offer(a, log_for(a.store(), k, 1, 10)), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(offer(a, log_for(a.store(), k, 2, 20)), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.store().get(k)->as<std::uint64_t>(), 20u);
  EXPECT_EQ(a.applied_count(), 2u);
}

TEST(InOrderApplier, HoldsFutureAppliesAfterGapFilled) {
  const auto cfg = test_cfg();
  SoloApplier a(0, cfg);
  const state::Key k = 7;
  const auto second = log_for(a.store(), k, 2, 20);
  const auto first = log_for(a.store(), k, 1, 10);
  EXPECT_EQ(offer(a, second), InOrderApplier::Offer::kHeld);
  EXPECT_FALSE(a.store().get(k).has_value());
  EXPECT_EQ(offer(a, first), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(offer(a, second), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.store().get(k)->as<std::uint64_t>(), 20u);
}

TEST(InOrderApplier, DuplicateDetected) {
  const auto cfg = test_cfg();
  SoloApplier a(0, cfg);
  const state::Key k = 7;
  const auto first = log_for(a.store(), k, 1, 10);
  EXPECT_EQ(offer(a, first), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(offer(a, first), InOrderApplier::Offer::kDuplicate);
  EXPECT_EQ(a.applied_count(), 1u);
}

TEST(InOrderApplier, DisjointPartitionsApplyInAnyOrder) {
  const auto cfg = test_cfg();
  SoloApplier a(0, cfg);
  state::Key k1 = 0, k2 = 1;
  while (a.store().partition_of(k1) == a.store().partition_of(k2)) ++k2;
  const auto la = log_for(a.store(), k1, 1, 111);
  const auto lb = log_for(a.store(), k2, 1, 222);
  EXPECT_EQ(offer(a, lb), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(offer(a, la), InOrderApplier::Offer::kApplied);
  EXPECT_EQ(a.store().get(k1)->as<std::uint64_t>(), 111u);
  EXPECT_EQ(a.store().get(k2)->as<std::uint64_t>(), 222u);
}

TEST(InOrderApplier, MaxTracksAppliedLogs) {
  const auto cfg = test_cfg();
  SoloApplier a(0, cfg);
  const state::Key k = 3;
  const auto p = a.store().partition_of(k);
  offer(a, log_for(a.store(), k, 1, 1));
  offer(a, log_for(a.store(), k, 2, 2));
  EXPECT_EQ(a.max().seq[p], 2u);
}

TEST(InOrderApplier, ConcurrentDisjointAppliesAllLand) {
  // Four workers of a four-worker node, each offering logs for partitions
  // it owns: every log applies in place on its owner, concurrently.
  const auto cfg = test_cfg();
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  const state::ShardMap map(cfg.num_partitions, kThreads);
  StateHandoffMesh mesh(kThreads + 1, kThreads, cfg.handoff_capacity);
  InOrderApplier a(0, cfg, map, mesh);

  // One key per thread, in a partition that thread owns.
  std::vector<state::Key> keys;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    state::Key k = 0;
    while (map.owner_of(a.store().partition_of(k)) != t) ++k;
    keys.push_back(k);
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rt::set_current_shard(static_cast<std::uint32_t>(t));
      for (std::uint64_t s = 1; s <= kPerThread; ++s) {
        ASSERT_EQ(offer(a, log_for(a.store(), keys[t], s, s)),
                  InOrderApplier::Offer::kApplied);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(mesh.empty());  // Owner hits only: nothing was handed off.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(a.store().get(keys[t])->as<std::uint64_t>(), kPerThread);
  }
  EXPECT_EQ(a.applied_count(), kThreads * kPerThread);
}

TEST(InOrderApplier, EraseLogsApply) {
  const auto cfg = test_cfg();
  SoloApplier a(0, cfg);
  const state::Key k = 5;
  offer(a, log_for(a.store(), k, 1, 10));
  PiggybackLog erase_log;
  erase_log.mbox = 0;
  const auto p = a.store().partition_of(k);
  erase_log.dep.mask = 1ULL << p;
  erase_log.dep.seq[p] = 2;
  erase_log.writes.push_back({k, state::Bytes{}, true});
  EXPECT_EQ(offer(a, erase_log), InOrderApplier::Offer::kApplied);
  EXPECT_FALSE(a.store().get(k).has_value());
}

TEST(LogHistory, RecordsAndServesRetransmissions) {
  LogHistory h(10);
  state::StateStore probe(16);
  for (std::uint64_t s = 1; s <= 5; ++s) h.record(wire_record(log_for(probe, 7, s, s)));
  EXPECT_EQ(h.size(), 5u);

  MaxVector have;
  have.seq[probe.partition_of(7)] = 3;
  const auto missing = logs_after(h, have);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].dep.seq[probe.partition_of(7)], 4u);
  EXPECT_EQ(missing[1].dep.seq[probe.partition_of(7)], 5u);
}

TEST(LogHistory, PruneDropsCoveredPrefix) {
  LogHistory h(10);
  state::StateStore probe(16);
  for (std::uint64_t s = 1; s <= 5; ++s) h.record(wire_record(log_for(probe, 7, s, s)));
  MaxVector commit;
  commit.seq[probe.partition_of(7)] = 3;
  h.prune(commit);
  EXPECT_EQ(h.size(), 2u);
}

TEST(LogHistory, CapacityBounded) {
  LogHistory h(4);
  state::StateStore probe(16);
  for (std::uint64_t s = 1; s <= 100; ++s) h.record(wire_record(log_for(probe, 7, s, s)));
  EXPECT_EQ(h.size(), 4u);
}

TEST(ApplierTransfer, SerializeDeserializeRestoresStoreAndMax) {
  const auto cfg = test_cfg();
  SoloApplier src(0, cfg);
  // Five keys in distinct partitions, each with its own sequence run.
  std::vector<state::Key> keys;
  for (state::Key k = 0; keys.size() < 5; ++k) {
    bool dup = false;
    for (auto e : keys) {
      dup |= src.store().partition_of(e) == src.store().partition_of(k);
    }
    if (!dup) keys.push_back(k);
  }
  for (std::uint64_t s = 1; s <= 10; ++s) {
    for (state::Key k : keys) {
      ASSERT_EQ(offer(src, log_for(src.store(), k, s, s * 10 + k)),
                InOrderApplier::Offer::kApplied);
    }
  }
  std::vector<std::uint8_t> blob;
  src.serialize(blob);

  SoloApplier dst(0, cfg);
  ASSERT_TRUE(dst.deserialize(blob));
  EXPECT_EQ(dst.max(), src.max());
  for (state::Key k : keys) {
    ASSERT_TRUE(dst.store().get(k).has_value());
    EXPECT_EQ(dst.store().get(k)->as<std::uint64_t>(), 100 + k);
  }
}

TEST(HeadTransfer, HeadRestoresFromApplierBlob) {
  // Paper §5.2: a failed head is restored FROM its successor's applier:
  // store, MAX (as the new dependency vector), and the log history.
  const auto cfg = test_cfg();
  SoloApplier successor(0, cfg);
  const state::Key k = 9;
  const auto p = successor.store().partition_of(k);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    offer(successor, log_for(successor.store(), k, s, s * 100));
  }
  std::vector<std::uint8_t> blob;
  successor.serialize(blob);

  HeadStore head(0, cfg);
  ASSERT_TRUE(head.deserialize(blob));
  EXPECT_EQ(head.store().get(k)->as<std::uint64_t>(), 300u);

  // The restored dependency vector continues the sequence: the next
  // transaction touching partition p must get seq 4.
  auto record = state::run_transaction(head.txn_ctx(), [&](state::Txn& t) {
    t.write(k, state::Bytes::of<std::uint64_t>(400));
  });
  EXPECT_EQ(record.seqs[p], 4u);
}

TEST(HeadStore, RecordLogRecordsHistory) {
  const auto cfg = test_cfg();
  HeadStore head(3, cfg);
  auto record = state::run_transaction(head.txn_ctx(), [&](state::Txn& t) {
    t.write(1, state::Bytes::of<int>(5));
  });
  LogRecordBuffer buf;
  const auto rec = head.record_log(record, buf);
  const PiggybackLog log =
      materialize_log(decode_record(rec.data(), static_cast<std::uint32_t>(rec.size())));
  EXPECT_EQ(log.mbox, 3u);
  EXPECT_EQ(log.writes.size(), 1u);
  ASSERT_EQ(head.history().size(), 1u);
  EXPECT_EQ(logs_after(head.history(), MaxVector{}).front(), log);
  // The history holds the very bytes the head hands to the packet.
  std::vector<std::uint8_t> history_bytes;
  head.history().append_after(MaxVector{}, history_bytes);
  EXPECT_EQ(history_bytes, std::vector<std::uint8_t>(rec.begin(), rec.end()));

  // Commit covering the log prunes it.
  MaxVector commit;
  commit.advance(log.dep);
  head.prune(commit);
  EXPECT_EQ(head.history().size(), 0u);
}

TEST(HeadStore, ReadOnlyTxnProducesNoLog) {
  const auto cfg = test_cfg();
  HeadStore head(0, cfg);
  auto record = state::run_transaction(head.txn_ctx(), [&](state::Txn& t) {
    (void)t.read(1);
  });
  EXPECT_TRUE(record.read_only());
  LogRecordBuffer buf;
  EXPECT_TRUE(head.record_log(record, buf).empty());
  EXPECT_EQ(head.history().size(), 0u);
}

}  // namespace
}  // namespace sfc::ftc
