// Shard-affine state tests: handoff-ring mesh semantics, seqlock
// occupancy readers, cross-partition bursts across real threads (the
// TSan/ASan target), a differential check pinning the lock-free shard
// apply byte-identical to the materializing oracle (one decoded log at a
// time under a single MAX vector, wire_oracle.hpp) over randomized log
// sequences, the shard-affine transaction fast path, and packet-pool
// magazine conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/stores.hpp"
#include "packet/packet_pool.hpp"
#include "runtime/rng.hpp"
#include "runtime/worker.hpp"
#include "state/handoff_ring.hpp"
#include "state/shard_map.hpp"
#include "wire_oracle.hpp"

namespace sfc::ftc {
namespace {

ChainConfig test_cfg() {
  ChainConfig cfg;
  cfg.num_partitions = 16;
  cfg.history_capacity = 4096;
  return cfg;
}

/// A key in partition @p p of @p store (small keys scan quickly).
state::Key key_in_partition(const state::StateStore& store, std::size_t p,
                            std::size_t nth = 0) {
  std::size_t seen = 0;
  for (state::Key k = 0; k < 100'000; ++k) {
    if (store.partition_of(k) == p && seen++ == nth) return k;
  }
  ADD_FAILURE() << "no key found for partition " << p;
  return 0;
}

// --- HandoffMesh ----------------------------------------------------------

TEST(HandoffMesh, FifoPerCellAndCapacityReject) {
  // Rings round the requested capacity up to a power-of-two minus one, so
  // probe the effective capacity via can_push instead of hard-coding it.
  state::HandoffMesh<int> mesh(/*producers=*/2, /*owners=*/1, /*capacity=*/4);
  int admitted = 0;
  while (mesh.can_push(0, 0)) {
    ASSERT_TRUE(mesh.push(0, 0, int{admitted}));
    ASSERT_LT(++admitted, 1024);  // capacity must be bounded
  }
  EXPECT_GE(admitted, 4);  // at least the requested capacity
  EXPECT_FALSE(mesh.push(0, 0, 9999));
  EXPECT_EQ(mesh.full_rejects(), 1u);
  // The other producer's ring is independent of the full one.
  EXPECT_TRUE(mesh.can_push(1, 0));
  EXPECT_TRUE(mesh.push(1, 0, -1));
  EXPECT_EQ(mesh.pushes(), static_cast<std::uint64_t>(admitted) + 1);
  EXPECT_GE(mesh.depth_high_water(), static_cast<std::uint64_t>(admitted));
  EXPECT_TRUE(mesh.pending(0));

  std::vector<int> order;
  const std::size_t n = mesh.drain(0, [&](int& v) { order.push_back(v); });
  EXPECT_EQ(n, static_cast<std::size_t>(admitted) + 1);
  // FIFO within each producer's ring.
  for (int i = 0; i < admitted; ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(mesh.empty());
  EXPECT_FALSE(mesh.pending(0));
  // The rejected entry frees up after the drain.
  EXPECT_TRUE(mesh.can_push(0, 0));
}

// --- Seqlock occupancy readers -------------------------------------------

TEST(ShardStore, OccupancyReaderNeverBlocksUnderOwnerChurn) {
  state::StateStore store(16);
  store.enable_shard_affine();
  const state::Key k0 = key_in_partition(store, 0, 0);
  const state::Key k1 = key_in_partition(store, 0, 1);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = store.occupancy(0);
      // Snapshot consistency: the high-water can never trail the count.
      EXPECT_LE(snap.keys, snap.keys_hw);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Owner thread: insert/erase churn inside seqlock write sections. The
  // occasional yield gives the reader even-version windows to land in. The
  // churn lasts until the reader has completed snapshots during it: a
  // reader thread scheduled only after a fixed iteration count would never
  // see a write section.
  for (int i = 0; i < 20'000 || reads.load(std::memory_order_relaxed) < 64;
       ++i) {
    store.owner_write_begin(1);
    store.put_owner(k0, state::Bytes::of<std::uint64_t>(i));
    if ((i & 1) != 0) {
      store.put_owner(k1, state::Bytes::of<std::uint64_t>(i));
      store.erase_owner(k1);
    }
    store.owner_write_end(1);
    if ((i & 255) == 0) std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  // The reader completed snapshots while the writer churned — it can spin
  // across a write section but never wedges.
  EXPECT_GE(reads.load(), 1u);
  const auto snap = store.occupancy(0);
  EXPECT_EQ(snap.keys, 1u);
  EXPECT_EQ(snap.keys_hw, 2u);
  EXPECT_EQ(store.keys_high_water(), 2u);
}

// --- Cross-partition bursts across real threads (TSan target) -------------

/// Owner-side drain helper: pops the mesh and resolves deferred entries
/// (the same loop FtcNode::drain_handoff runs at burst boundaries).
std::size_t drain_owner(StateHandoffMesh& mesh, std::size_t owner,
                        std::vector<StateHandoff>& deferred) {
  mesh.drain(owner, [&](StateHandoff& h) { deferred.push_back(std::move(h)); });
  std::size_t resolved = 0;
  bool progress = true;
  while (progress && !deferred.empty()) {
    progress = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < deferred.size(); ++i) {
      if (deferred[i].applier->apply_handoff(deferred[i])) {
        ++resolved;
        progress = true;
      } else {
        deferred[kept++] = std::move(deferred[i]);
      }
    }
    deferred.resize(kept);
  }
  return resolved;
}

TEST(ShardApplier, CrossPartitionBurstsAcrossThreads) {
  const auto cfg = test_cfg();
  state::ShardMap map(16, 2);
  StateHandoffMesh mesh(/*producers=*/3, /*owners=*/2, /*capacity=*/512);
  InOrderApplier a(0, cfg, map, mesh);

  // Each of 2 threads offers logs over BOTH workers' partitions: every log
  // spans one owned and one foreign partition, so every offer exercises
  // the handoff path while the opposite thread drains concurrently.
  constexpr int kLogs = 2'000;
  std::atomic<std::uint64_t> held{0};
  auto worker = [&](std::uint32_t self) {
    rt::set_current_shard(self);
    std::vector<StateHandoff> deferred;
    // Thread `self` is the sequencer for partitions {self, self+2}: it
    // alone assigns their seqs, so per-partition order holds by
    // construction while the two threads interleave freely.
    const std::size_t mine = self;          // owned by self
    const std::size_t theirs = self + 2;    // owned by the other worker
    const state::Key km = key_in_partition(a.store(), mine);
    const state::Key kt = key_in_partition(a.store(), theirs);
    for (int i = 1; i <= kLogs;) {
      PiggybackLog log;
      log.mbox = 0;
      log.dep.mask = (1ULL << mine) | (1ULL << theirs);
      log.dep.seq[mine] = static_cast<std::uint64_t>(i);
      log.dep.seq[theirs] = static_cast<std::uint64_t>(i);
      log.writes.push_back({km, state::Bytes::of<std::uint64_t>(i), false});
      log.writes.push_back({kt, state::Bytes::of<std::uint64_t>(i), false});
      const auto r = offer(a, log);
      if (r == InOrderApplier::Offer::kApplied) {
        ++i;
      } else {
        // Ring transiently full: drain our own side and retry.
        held.fetch_add(1, std::memory_order_relaxed);
      }
      drain_owner(mesh, self, deferred);
    }
    // Drain until the opposite thread's traffic stops arriving.
    for (int spin = 0; spin < 10'000; ++spin) {
      drain_owner(mesh, self, deferred);
      if (mesh.empty() && deferred.empty()) break;
      std::this_thread::yield();
    }
  };
  std::thread t0(worker, 0);
  std::thread t1(worker, 1);
  t0.join();
  t1.join();
  // Everything admitted must have landed.
  std::vector<StateHandoff> leftovers;
  drain_owner(mesh, 0, leftovers);
  drain_owner(mesh, 1, leftovers);
  EXPECT_TRUE(mesh.empty());
  EXPECT_TRUE(leftovers.empty());
  const auto max = a.max();
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(max.seq[p], static_cast<std::uint64_t>(kLogs)) << "p=" << p;
  }
  for (std::size_t p = 0; p < 4; ++p) {
    const auto v = a.store().get(key_in_partition(a.store(), p));
    ASSERT_TRUE(v.has_value()) << "p=" << p;
    EXPECT_EQ(v->as<std::uint64_t>(), static_cast<std::uint64_t>(kLogs));
  }
}

// --- Differential: shard apply == materializing oracle --------------------

TEST(ShardApplier, DifferentialMatchesMaterializingOracle) {
  const auto cfg = test_cfg();
  MaterializingApplier oracle(cfg);  // Decoded logs, one at a time.
  state::ShardMap map(16, 2);
  StateHandoffMesh mesh(3, 2, 512);
  InOrderApplier shard(0, cfg, map, mesh);

  rt::Pcg32 rng(0xd1ffe7);
  std::array<std::uint64_t, 16> next_seq{};
  std::vector<state::Key> keys;
  for (std::size_t p = 0; p < 16; ++p) {
    keys.push_back(key_in_partition(shard.store(), p));
  }

  // Randomized valid log stream: each log touches 1-3 random partitions
  // (advancing their seqs), writes or erases a key per touched partition.
  std::vector<PiggybackLog> logs;
  for (int i = 0; i < 1'500; ++i) {
    PiggybackLog log;
    log.mbox = 0;
    const int touches = 1 + static_cast<int>(rng.bounded(3));
    for (int t = 0; t < touches; ++t) {
      const std::size_t p = rng.bounded(16);
      if (log.dep.touches(p)) continue;
      log.dep.mask |= 1ULL << p;
      log.dep.seq[p] = ++next_seq[p];
      const bool erase = rng.bounded(8) == 0;
      log.writes.push_back(
          {keys[p], state::Bytes::of<std::uint64_t>(rng.next64()), erase});
    }
    logs.push_back(std::move(log));
  }

  // Feed both sides the same stream with light local reordering plus
  // duplicate re-offers; the shard side alternates the offering "worker"
  // and drains both owners as it goes.
  std::vector<StateHandoff> d0;
  std::vector<StateHandoff> d1;
  std::vector<const PiggybackLog*> window;
  auto feed = [&](const PiggybackLog& log) {
    // Oracle: retry held logs immediately in order.
    const auto ro = oracle.offer(log);
    // Shard: offered from an alternating shard identity (and sometimes
    // from "control", the no-shard identity).
    const std::uint32_t who = rng.bounded(3);
    rt::set_current_shard(who == 2 ? rt::kNoShard : who);
    auto rs = offer(shard, log);
    if (rs == InOrderApplier::Offer::kHeld) {
      // Ring full or gap: drain and retry until admitted.
      for (int spin = 0; spin < 1'000; ++spin) {
        drain_owner(mesh, 0, d0);
        drain_owner(mesh, 1, d1);
        rs = offer(shard, log);
        if (rs != InOrderApplier::Offer::kHeld) break;
      }
    }
    EXPECT_NE(rs, InOrderApplier::Offer::kHeld);
    EXPECT_EQ(ro, InOrderApplier::Offer::kApplied);
    if (rng.bounded(4) == 0) {
      drain_owner(mesh, 0, d0);
      drain_owner(mesh, 1, d1);
    }
    if (rng.bounded(8) == 0) {
      // Duplicate re-offer must be recognized by both sides.
      EXPECT_EQ(oracle.offer(log), InOrderApplier::Offer::kDuplicate);
      EXPECT_EQ(offer(shard, log), InOrderApplier::Offer::kDuplicate);
    }
  };
  for (auto& log : logs) {
    window.push_back(&log);
    if (window.size() < 2 || rng.bounded(2) == 0) continue;
    // Swapping adjacent logs is always valid when their masks are
    // disjoint (the paper's partial order); otherwise keep order.
    if ((window[0]->dep.mask & window[1]->dep.mask) == 0 &&
        rng.bounded(2) == 0) {
      std::swap(window[0], window[1]);
    }
    for (const auto* l : window) feed(*l);
    window.clear();
  }
  for (const auto* l : window) feed(*l);
  drain_owner(mesh, 0, d0);
  drain_owner(mesh, 1, d1);
  ASSERT_TRUE(mesh.empty());
  ASSERT_TRUE(d0.empty() && d1.empty());
  rt::set_current_shard(rt::kNoShard);

  // Byte-identical stores and identical MAX vectors.
  const auto mo = oracle.max();
  const auto ms = shard.max();
  for (std::size_t p = 0; p < 16; ++p) {
    EXPECT_EQ(mo.seq[p], ms.seq[p]) << "p=" << p;
    const auto vo = oracle.store().get(keys[p]);
    const auto vs = shard.store().get(keys[p]);
    ASSERT_EQ(vo.has_value(), vs.has_value()) << "p=" << p;
    if (vo.has_value()) {
      ASSERT_EQ(vo->size(), vs->size()) << "p=" << p;
      EXPECT_EQ(0, std::memcmp(vo->data(), vs->data(), vo->size()))
          << "p=" << p;
    }
  }
  EXPECT_EQ(oracle.store().total_entries(), shard.store().total_entries());
  EXPECT_EQ(oracle.applied_count(), shard.applied_count());
}

// --- Txn fast path --------------------------------------------------------

TEST(ShardTxn, FastPathMatchesLockedAndCountsOwnerMisses) {
  state::StateStore locked_store(16);
  state::TxnContext locked_ctx(locked_store);
  state::StateStore shard_store(16);
  state::TxnContext shard_ctx(shard_store);
  shard_store.enable_shard_affine();
  shard_ctx.enable_shard_affine();
  shard_ctx.reset_owner();

  for (std::uint64_t i = 1; i <= 100; ++i) {
    const state::Key k = i % 7;
    auto rl = state::run_transaction(
        locked_ctx, [&](state::Txn& t) { t.fetch_add(k, i); });
    auto rs = state::run_transaction(
        shard_ctx, [&](state::Txn& t) { t.fetch_add(k, i); });
    EXPECT_EQ(rl.touched_mask, rs.touched_mask);
    for (std::size_t p = 0; p < 16; ++p) {
      EXPECT_EQ(rl.seqs[p], rs.seqs[p]) << "i=" << i << " p=" << p;
    }
  }
  for (state::Key k = 0; k < 7; ++k) {
    const auto vl = locked_store.get(k);
    const auto vs = shard_store.get(k);
    ASSERT_EQ(vl.has_value(), vs.has_value());
    if (vl) {
      EXPECT_EQ(vl->as<std::uint64_t>(), vs->as<std::uint64_t>());
    }
  }
  EXPECT_EQ(shard_ctx.owner_misses(), 0u);

  // A transaction from a foreign thread is correct but counted as a miss.
  std::thread other([&] {
    state::run_transaction(shard_ctx,
                           [](state::Txn& t) { t.fetch_add(3, 1); });
  });
  other.join();
  EXPECT_GE(shard_ctx.owner_misses(), 1u);
}

// --- Packet pool magazines ------------------------------------------------

TEST(PacketPoolMagazines, ConservesCapacityAcrossThreads) {
  constexpr std::size_t kCap = 256;
  pkt::PacketPool pool(kCap);

  // Multi-threaded alloc/free churn: frees land in per-thread magazines.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, t] {
      rt::Pcg32 rng(0xbeef + t);
      std::vector<pkt::Packet*> held;
      for (int i = 0; i < 20'000; ++i) {
        if (!held.empty() && rng.bounded(2) == 0) {
          pool.free_raw(held.back());
          held.pop_back();
        } else if (pkt::Packet* p = pool.alloc_raw()) {
          EXPECT_TRUE(pool.owns(p));
          held.push_back(p);
        }
      }
      for (pkt::Packet* p : held) pool.free_raw(p);
    });
  }
  for (auto& t : threads) t.join();
  // Quiescent: every packet is back (global list + magazines).
  EXPECT_EQ(pool.available_approx(), kCap);

  // The cold sweep finds packets stranded in other threads' magazines:
  // allocating everything from THIS thread must yield the full capacity.
  std::vector<pkt::Packet*> all;
  while (pkt::Packet* p = pool.alloc_raw()) all.push_back(p);
  EXPECT_EQ(all.size(), kCap);
  EXPECT_GT(pool.alloc_failures(), 0u);  // The final probe hit exhaustion.
  for (pkt::Packet* p : all) pool.free_raw(p);
  EXPECT_EQ(pool.available_approx(), kCap);
}

}  // namespace
}  // namespace sfc::ftc
