// Lock-rank deadlock detector (base/lock_rank.hpp) tier-1 tests.
//
// The detector is compiled in for non-Release builds (SFC_LOCK_RANK_CHECKS)
// and aborts the process on a rank inversion, naming both locks. Death
// tests run the offending acquisition in a forked child so the abort is
// observable; when the checks are compiled out the suite skips.

#include <gtest/gtest.h>

#include <thread>

#include "base/lock_rank.hpp"
#include "base/mutex.hpp"
#include "state/partition_lock.hpp"

namespace sfc {
namespace {

bool checks_enabled() { return lockrank::enabled(); }

class LockRankDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!checks_enabled()) {
      GTEST_SKIP() << "lock-rank checks compiled out (Release build)";
    }
    // Forked death tests inherit the parent's held-lock TLS; keep the
    // parent clean by never acquiring in the parent in these tests.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(LockRankDeathTest, RankInversionAbortsNamingBothLocks) {
  Mutex outer{ranks::kControl, "test.outer"};
  Mutex inner{ranks::kLeaf, "test.inner"};
  // Correct order first, to show the pair itself is fine.
  {
    LockGuard a(outer);
    LockGuard b(inner);
  }
  // Inverted order: acquiring the higher rank while holding the lower one
  // must abort and print both names.
  EXPECT_DEATH(
      {
        LockGuard b(inner);
        LockGuard a(outer);
      },
      "rank inversion.*test\\.outer.*test\\.inner");
}

TEST_F(LockRankDeathTest, EqualRankWithoutWoundWaitAborts) {
  Mutex a{ranks::kLeaf, "test.peer_a"};
  Mutex b{ranks::kLeaf, "test.peer_b"};
  EXPECT_DEATH(
      {
        LockGuard la(a);
        LockGuard lb(b);
      },
      "rank inversion.*test\\.peer_b.*test\\.peer_a");
}

TEST_F(LockRankDeathTest, RecursiveAcquisitionAborts) {
  Mutex m{ranks::kLeaf, "test.recursive"};
  EXPECT_DEATH(
      {
        lockrank::check_acquire(&m, ranks::kLeaf, "test.recursive",
                                SameRank::kForbid);
        lockrank::note_held(&m, ranks::kLeaf, "test.recursive",
                            SameRank::kForbid);
        lockrank::check_acquire(&m, ranks::kLeaf, "test.recursive",
                                SameRank::kForbid);
      },
      "recursive acquisition.*test\\.recursive");
}

TEST(LockRankTest, CorrectOrderStaysSilent) {
  if (!checks_enabled()) GTEST_SKIP();
  // The full decreasing chain across layer ranks, as the data path nests
  // them: obs > node > control > transport > link > leaf.
  Mutex obs{ranks::kObs, "test.obs"};
  Mutex node{ranks::kNode, "test.node"};
  Mutex ctrl{ranks::kControl, "test.ctrl"};
  Mutex transport{ranks::kTransport, "test.transport"};
  Mutex link{ranks::kLink, "test.link"};
  Mutex leaf{ranks::kLeaf, "test.leaf"};
  {
    LockGuard l1(obs);
    LockGuard l2(node);
    LockGuard l3(ctrl);
    LockGuard l4(transport);
    LockGuard l5(link);
    LockGuard l6(leaf);
    EXPECT_GE(lockrank::held_depth(), 6u);
  }
  EXPECT_EQ(lockrank::held_depth(), 0u);
}

TEST(LockRankTest, WoundWaitSameRankMultiHoldAllowed) {
  if (!checks_enabled()) GTEST_SKIP();
  // state::apply_locked (tests/wire_oracle.hpp) takes several partition
  // locks at the same rank in index order; the wound-wait policy
  // sanctions that.
  state::PartitionLock locks[4];
  state::TxnSlot slot;
  for (auto& l : locks) l.lock_apply(&slot);
  EXPECT_EQ(lockrank::held_depth(), 4u);
  for (auto& l : locks) l.unlock();
  EXPECT_EQ(lockrank::held_depth(), 0u);
}

TEST(LockRankTest, NonLifoReleaseTolerated) {
  if (!checks_enabled()) GTEST_SKIP();
  // StateStore releases partitions in index order, not reverse-acquisition
  // order; the detector's release path must handle that.
  state::PartitionLock a, b;
  state::TxnSlot slot;
  a.lock_apply(&slot);
  b.lock_apply(&slot);
  a.unlock();  // Released first although acquired first.
  b.unlock();
  EXPECT_EQ(lockrank::held_depth(), 0u);
}

TEST(LockRankTest, TryLockRecordsOnlyOnSuccess) {
  if (!checks_enabled()) GTEST_SKIP();
  Mutex m{ranks::kLeaf, "test.trylock"};
  // Contended try_lock fails without touching the held stack.
  LockGuard hold(m);
  std::thread([&] {
    UniqueLock lock(m, std::defer_lock);
    EXPECT_FALSE(lock.try_lock());
    EXPECT_EQ(lockrank::held_depth(), 0u);
  }).join();
}

TEST(LockRankTest, HeldDepthTracksGuardScopes) {
  if (!checks_enabled()) GTEST_SKIP();
  Mutex outer{ranks::kControl, "test.depth_outer"};
  Mutex inner{ranks::kLeaf, "test.depth_inner"};
  EXPECT_EQ(lockrank::held_depth(), 0u);
  {
    LockGuard a(outer);
    EXPECT_EQ(lockrank::held_depth(), 1u);
    {
      UniqueLock b(inner);
      EXPECT_EQ(lockrank::held_depth(), 2u);
      b.unlock();
      EXPECT_EQ(lockrank::held_depth(), 1u);
      b.lock();
      EXPECT_EQ(lockrank::held_depth(), 2u);
    }
    EXPECT_EQ(lockrank::held_depth(), 1u);
  }
  EXPECT_EQ(lockrank::held_depth(), 0u);
}

}  // namespace
}  // namespace sfc
