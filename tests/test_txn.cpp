// Tests for transactional packet processing: 2PL semantics, wound-wait,
// abort/re-execute, dependency-vector sequence assignment.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "state/txn.hpp"

namespace sfc::state {
namespace {

TEST(Txn, ReadMissingReturnsNullopt) {
  StateStore store(8);
  TxnContext ctx(store);
  auto rec = run_transaction(ctx, [](Txn& t) {
    EXPECT_FALSE(t.read(1).has_value());
    EXPECT_FALSE(t.contains(1));
  });
  EXPECT_TRUE(rec.read_only());
  EXPECT_NE(rec.touched_mask, 0u);
}

TEST(Txn, WriteThenReadInSameTxn) {
  StateStore store(8);
  TxnContext ctx(store);
  run_transaction(ctx, [](Txn& t) {
    t.write(5, Bytes::of<std::uint64_t>(99));
    auto v = t.read(5);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->as<std::uint64_t>(), 99u);
  });
  EXPECT_EQ(store.get(5)->as<std::uint64_t>(), 99u);
}

TEST(Txn, EraseVisibleInTxnAndAfterCommit) {
  StateStore store(8);
  TxnContext ctx(store);
  run_transaction(ctx, [](Txn& t) { t.write(5, Bytes::of<int>(1)); });
  run_transaction(ctx, [](Txn& t) {
    EXPECT_TRUE(t.contains(5));
    t.erase(5);
    EXPECT_FALSE(t.contains(5));
    EXPECT_FALSE(t.read(5).has_value());
  });
  EXPECT_FALSE(store.get(5).has_value());
}

TEST(Txn, UncommittedWritesAreInvisible) {
  StateStore store(8);
  TxnContext ctx(store);
  {
    Txn t(ctx, ctx.next_timestamp());
    t.write(7, Bytes::of<int>(1));
    t.rollback();
  }
  EXPECT_FALSE(store.get(7).has_value());
}

TEST(Txn, DestructorWithoutCommitRollsBack) {
  StateStore store(8);
  TxnContext ctx(store);
  {
    Txn t(ctx, ctx.next_timestamp());
    t.write(7, Bytes::of<int>(1));
    // No commit: destructor must release locks and discard writes.
  }
  EXPECT_FALSE(store.get(7).has_value());
  // Locks must be free: another transaction can proceed.
  run_transaction(ctx, [](Txn& t) { t.write(7, Bytes::of<int>(2)); });
  EXPECT_EQ(store.get(7)->as<int>(), 2);
}

TEST(Txn, FetchAddCountsFromZero) {
  StateStore store(8);
  TxnContext ctx(store);
  run_transaction(ctx, [](Txn& t) { EXPECT_EQ(t.fetch_add(3, 5), 5u); });
  run_transaction(ctx, [](Txn& t) { EXPECT_EQ(t.fetch_add(3, 5), 10u); });
  EXPECT_EQ(store.get(3)->as<std::uint64_t>(), 10u);
}

TEST(Txn, WriteSetDeduplicatesPerKey) {
  StateStore store(8);
  TxnContext ctx(store);
  auto rec = run_transaction(ctx, [](Txn& t) {
    t.write(1, Bytes::of<int>(1));
    t.write(1, Bytes::of<int>(2));
    t.write(1, Bytes::of<int>(3));
  });
  ASSERT_EQ(rec.writes.size(), 1u);
  EXPECT_EQ(rec.writes[0].value.as<int>(), 3);
  EXPECT_EQ(store.get(1)->as<int>(), 3);
}

TEST(Txn, WriteSetDedupeKeepsFirstPlaceAndLastValue) {
  StateStore store(8);
  TxnContext ctx(store);
  run_transaction(ctx, [](Txn& t) { t.write(2, Bytes::of<int>(0)); });
  auto rec = run_transaction(ctx, [](Txn& t) {
    t.write(1, Bytes::of<int>(1));
    t.write(2, Bytes::of<int>(2));
    t.write(1, Bytes::of<int>(3));
    t.write(3, Bytes::of<int>(4));
    t.erase(2);
  });
  ASSERT_EQ(rec.writes.size(), 3u);
  EXPECT_EQ(rec.writes[0], (StateUpdate{1, Bytes::of<int>(3), false}));
  EXPECT_EQ(rec.writes[1], (StateUpdate{2, Bytes{}, true}));
  EXPECT_EQ(rec.writes[2], (StateUpdate{3, Bytes::of<int>(4), false}));
  EXPECT_EQ(store.get(1)->as<int>(), 3);
  EXPECT_FALSE(store.get(2).has_value());
  EXPECT_EQ(store.get(3)->as<int>(), 4);
}

TEST(Txn, FetchAddReadsBufferedWritesAndErases) {
  StateStore store(8);
  TxnContext ctx(store);
  auto rec = run_transaction(ctx, [](Txn& t) {
    t.write(4, Bytes::of<std::uint64_t>(7));
    EXPECT_EQ(t.fetch_add(4, 1), 8u);
    t.erase(4);
    EXPECT_EQ(t.fetch_add(4, 2), 2u);
  });
  ASSERT_EQ(rec.writes.size(), 1u);
  EXPECT_EQ(rec.writes[0], (StateUpdate{4, Bytes::of<std::uint64_t>(2), false}));
  EXPECT_EQ(store.get(4)->as<std::uint64_t>(), 2u);
}

// TxnRecord::accesses is what FTMB sends one PAL per: a read, write,
// erase or contains is one access and a fetch_add is a read plus a write,
// on the locked path and on the single-writer fast path alike.
TEST(Txn, AccessCountsPerOperation) {
  for (const bool shard_affine : {false, true}) {
    SCOPED_TRACE(shard_affine ? "shard-affine" : "locked");
    StateStore store(8);
    TxnContext ctx(store);
    if (shard_affine) {
      store.enable_shard_affine();
      ctx.enable_shard_affine();
    }
    run_transaction(ctx, [](Txn& t) { t.write(9, Bytes::of<std::uint64_t>(1)); });
    const auto accesses = [&](auto&& body) {
      return run_transaction(ctx, body).accesses;
    };
    EXPECT_EQ(accesses([](Txn& t) { (void)t.read(9); }), 1u);
    EXPECT_EQ(accesses([](Txn& t) { t.write(9, Bytes::of<std::uint64_t>(2)); }), 1u);
    EXPECT_EQ(accesses([](Txn& t) { t.erase(8); }), 1u);
    EXPECT_EQ(accesses([](Txn& t) { (void)t.contains(9); }), 1u);
    EXPECT_EQ(accesses([](Txn& t) { (void)t.fetch_add(9, 1); }), 2u);
    EXPECT_EQ(accesses([](Txn& t) {
                (void)t.read(9);
                (void)t.fetch_add(9, 1);
                (void)t.fetch_add(7, 1);
                (void)t.contains(7);
              }),
              6u);
    EXPECT_EQ(ctx.owner_misses(), 0u);
  }
}

TEST(Txn, ReadOnlyTxnDoesNotBumpSequences) {
  StateStore store(8);
  TxnContext ctx(store);
  run_transaction(ctx, [](Txn& t) { t.write(1, Bytes::of<int>(1)); });
  const auto before = ctx.sequence_snapshot();
  run_transaction(ctx, [](Txn& t) { (void)t.read(1); });
  EXPECT_EQ(ctx.sequence_snapshot(), before);
}

TEST(Txn, WritingTxnBumpsEveryTouchedPartition) {
  StateStore store(8);
  TxnContext ctx(store);
  // Find two keys in distinct partitions.
  Key a = 0, b = 1;
  while (store.partition_of(a) == store.partition_of(b)) ++b;

  auto rec = run_transaction(ctx, [&](Txn& t) {
    (void)t.read(a);                  // Read-only access to a's partition.
    t.write(b, Bytes::of<int>(1));    // Write access to b's partition.
  });
  const auto pa = store.partition_of(a);
  const auto pb = store.partition_of(b);
  EXPECT_TRUE(rec.touched_mask & (1ULL << pa));
  EXPECT_TRUE(rec.touched_mask & (1ULL << pb));
  EXPECT_EQ(rec.seqs[pa], 1u);  // Reads in a writing txn ARE sequenced.
  EXPECT_EQ(rec.seqs[pb], 1u);
  const auto seqs = ctx.sequence_snapshot();
  EXPECT_EQ(seqs[pa], 1u);
  EXPECT_EQ(seqs[pb], 1u);
}

TEST(Txn, SequencesAreMonotonicPerPartition) {
  StateStore store(4);
  TxnContext ctx(store);
  const Key k = 9;
  const auto p = store.partition_of(k);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    auto rec = run_transaction(ctx, [&](Txn& t) { t.fetch_add(k, 1); });
    EXPECT_EQ(rec.seqs[p], i);
  }
}

TEST(Txn, RestoreSequencesAfterFailover) {
  StateStore store(8);
  TxnContext ctx(store);
  std::array<std::uint64_t, kMaxPartitions> seqs{};
  seqs.fill(42);
  ctx.restore_sequences(seqs);
  const Key k = 1;
  auto rec = run_transaction(ctx, [&](Txn& t) { t.write(k, Bytes::of<int>(1)); });
  EXPECT_EQ(rec.seqs[store.partition_of(k)], 43u);
}

TEST(Txn, ConcurrentCountersAreExact) {
  StateStore store(16);
  TxnContext ctx(store);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  const Key shared = key_of_name("shared-counter");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        run_transaction(ctx, [&](Txn& txn) { txn.fetch_add(shared, 1); });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.get(shared)->as<std::uint64_t>(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Txn, WoundWaitResolvesCrossLockContention) {
  // Two keys in different partitions, accessed in opposite order by two
  // thread groups: a classic deadlock shape that wound-wait must resolve.
  StateStore store(16);
  TxnContext ctx(store);
  Key a = 0, b = 1;
  while (store.partition_of(a) == store.partition_of(b)) ++b;

  constexpr int kRounds = 5000;
  std::barrier sync(2);
  std::thread t1([&] {
    sync.arrive_and_wait();
    for (int i = 0; i < kRounds; ++i) {
      run_transaction(ctx, [&](Txn& t) {
        t.fetch_add(a, 1);
        t.fetch_add(b, 1);
      });
    }
  });
  std::thread t2([&] {
    sync.arrive_and_wait();
    for (int i = 0; i < kRounds; ++i) {
      run_transaction(ctx, [&](Txn& t) {
        t.fetch_add(b, 1);
        t.fetch_add(a, 1);
      });
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(store.get(a)->as<std::uint64_t>(), 2u * kRounds);
  EXPECT_EQ(store.get(b)->as<std::uint64_t>(), 2u * kRounds);
}

TEST(Txn, AllPartitionTransactionsStayExactUnderRotatedOrders) {
  // Every transaction touches all 8 keys (8 distinct partitions) in a
  // rotated order — the worst case for deadlock avoidance. Counts must be
  // exact and the run must terminate (no livelock).
  StateStore store(16);
  TxnContext ctx(store);
  std::vector<Key> keys;
  for (Key k = 0; keys.size() < 8; ++k) {
    bool dup = false;
    for (Key e : keys) dup |= store.partition_of(e) == store.partition_of(k);
    if (!dup) keys.push_back(k);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        run_transaction(ctx, [&](Txn& txn) {
          // Each thread touches all keys in a rotated order.
          for (std::size_t j = 0; j < keys.size(); ++j) {
            txn.fetch_add(keys[(j + static_cast<std::size_t>(t)) % keys.size()], 1);
          }
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  for (Key k : keys) {
    EXPECT_EQ(store.get(k)->as<std::uint64_t>(),
              static_cast<std::uint64_t>(kThreads) * kRounds);
  }
}

TEST(Txn, OlderTransactionWoundsYoungerLockHolder) {
  // Deterministic wound-wait exercise: a younger transaction holds a
  // partition lock; an older transaction requests it. The younger must
  // observe the wound at its next state access and abort; the older must
  // then acquire the lock and commit.
  StateStore store(8);
  TxnContext ctx(store);
  const Key k = 21;

  const std::uint64_t older_ts = ctx.next_timestamp();
  const std::uint64_t younger_ts = ctx.next_timestamp();
  ASSERT_LT(older_ts, younger_ts);

  std::atomic<bool> younger_holds{false};
  std::atomic<bool> younger_aborted{false};

  std::thread younger([&] {
    Txn txn(ctx, younger_ts);
    (void)txn.read(k);  // Acquires the partition lock.
    younger_holds.store(true);
    try {
      // Poll state accesses until the wound lands.
      for (int i = 0; i < 1000000 && !younger_aborted.load(); ++i) {
        (void)txn.read(k);
        std::this_thread::yield();
      }
    } catch (const TxnAborted&) {
      younger_aborted.store(true);
      txn.rollback();
    }
  });

  while (!younger_holds.load()) std::this_thread::yield();

  Txn older(ctx, older_ts);
  older.write(k, Bytes::of<int>(7));  // Blocks until the younger aborts.
  auto rec = older.commit();
  EXPECT_EQ(rec.writes.size(), 1u);

  younger.join();
  EXPECT_TRUE(younger_aborted.load());
  EXPECT_GE(ctx.aborts(), 1u);
  EXPECT_EQ(store.get(k)->as<int>(), 7);
}

TEST(Txn, YoungerWaitsForOlderWithoutWounding) {
  // Inverse case: the older transaction holds the lock; the younger must
  // wait (not wound). We verify the older is never aborted.
  StateStore store(8);
  TxnContext ctx(store);
  const Key k = 33;

  const std::uint64_t older_ts = ctx.next_timestamp();
  const std::uint64_t younger_ts = ctx.next_timestamp();

  Txn older(ctx, older_ts);
  older.write(k, Bytes::of<int>(1));  // Holds the lock.

  std::atomic<bool> younger_done{false};
  std::thread younger([&] {
    run_transaction(ctx, [&](Txn& t) { t.write(k, Bytes::of<int>(2)); },
                    younger_ts);
    younger_done.store(true);
  });

  // Give the younger ample time to (incorrectly) wound us.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(younger_done.load());
  auto rec = older.commit();  // Must succeed: we were never wounded.
  EXPECT_EQ(rec.writes.size(), 1u);

  younger.join();
  EXPECT_EQ(store.get(k)->as<int>(), 2);  // Younger committed after.
}

TEST(Txn, SerializabilityOfReadModifyWritePairs) {
  // Invariant: two keys start equal and every transaction adds the same
  // delta to both; serializability implies they remain equal after any
  // concurrent execution.
  StateStore store(16);
  TxnContext ctx(store);
  Key a = 10, b = 11;
  while (store.partition_of(a) == store.partition_of(b)) ++b;

  constexpr int kThreads = 6;
  constexpr int kRounds = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        run_transaction(ctx, [&](Txn& txn) {
          if (t % 2 == 0) {
            const auto va = txn.read(a);
            txn.write(a, Bytes::of(va ? va->as<std::uint64_t>() + 1 : 1ull));
            const auto vb = txn.read(b);
            txn.write(b, Bytes::of(vb ? vb->as<std::uint64_t>() + 1 : 1ull));
          } else {
            const auto vb = txn.read(b);
            txn.write(b, Bytes::of(vb ? vb->as<std::uint64_t>() + 1 : 1ull));
            const auto va = txn.read(a);
            txn.write(a, Bytes::of(va ? va->as<std::uint64_t>() + 1 : 1ull));
          }
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.get(a)->as<std::uint64_t>(), store.get(b)->as<std::uint64_t>());
  EXPECT_EQ(store.get(a)->as<std::uint64_t>(),
            static_cast<std::uint64_t>(kThreads) * kRounds);
}

// Parameterized sweep: the exact-counter invariant must hold across
// partition counts and thread counts.
struct TxnSweepParam {
  std::size_t partitions;
  int threads;
};

class TxnSweep : public ::testing::TestWithParam<TxnSweepParam> {};

TEST_P(TxnSweep, ExactCountsUnderContention) {
  const auto param = GetParam();
  StateStore store(param.partitions);
  TxnContext ctx(store);
  constexpr int kIncrements = 5000;
  const Key k = 77;

  std::vector<std::thread> threads;
  for (int t = 0; t < param.threads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        run_transaction(ctx, [&](Txn& txn) { txn.fetch_add(k, 1); });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.get(k)->as<std::uint64_t>(),
            static_cast<std::uint64_t>(param.threads) * kIncrements);
}

INSTANTIATE_TEST_SUITE_P(
    PartitionAndThreadSweep, TxnSweep,
    ::testing::Values(TxnSweepParam{1, 2}, TxnSweepParam{1, 8},
                      TxnSweepParam{4, 4}, TxnSweepParam{16, 8},
                      TxnSweepParam{16, 2}, TxnSweepParam{8, 8}),
    [](const ::testing::TestParamInfo<TxnSweepParam>& info) {
      return "p" + std::to_string(info.param.partitions) + "_t" +
             std::to_string(info.param.threads);
    });

}  // namespace
}  // namespace sfc::state
