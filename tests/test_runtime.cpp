// Unit tests for the runtime substrate: queues, RNG, clocks, histogram,
// rate limiter, worker loops.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "runtime/clock.hpp"
#include "runtime/histogram.hpp"
#include "runtime/meter.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/rate_limiter.hpp"
#include "runtime/rng.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/worker.hpp"
#include "wait_until.hpp"

namespace sfc::rt {
namespace {

using namespace std::chrono_literals;

TEST(Pow2, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Pow2, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
}

TEST(SpscQueue, PushPopOrdered) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  for (int i = 0; i < 8; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscQueue, RespectsCapacity) {
  SpscQueue<int> q(4);
  std::size_t pushed = 0;
  while (q.try_push(1)) ++pushed;
  EXPECT_GE(pushed, 4u);
  EXPECT_FALSE(q.try_push(1));
  ASSERT_TRUE(q.try_pop().has_value());
  EXPECT_TRUE(q.try_push(2));
}

/// Counts its live instances; heavy enough that eager slots would show.
struct Counted {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  Counted() { ++constructed; }
  explicit Counted(int v) : value(v) { ++constructed; }
  Counted(const Counted& o) : value(o.value) { ++constructed; }
  Counted(Counted&& o) noexcept : value(o.value) { ++constructed; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) noexcept = default;
  ~Counted() { ++destroyed; }
  int value{0};
  std::array<std::uint8_t, 200> payload{};
};

TEST(SpscQueue, SlotsAreBuiltOnlyByPushes) {
  Counted::constructed = Counted::destroyed = 0;
  {
    SpscQueue<Counted> q(1024);
    EXPECT_EQ(Counted::constructed, 0);
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_push(Counted(i)));
    const Counted copy(10);
    ASSERT_TRUE(q.try_push(copy));
    for (int i = 0; i < 4; ++i) {
      auto v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(v->value, i);
    }
    // Every element built so far is gone except the 7 still queued and
    // the local copy.
    EXPECT_EQ(Counted::constructed - Counted::destroyed, 7 + 1);
  }
  // The queue destroyed what it still held.
  EXPECT_EQ(Counted::constructed, Counted::destroyed);
}

TEST(SpscQueue, CrossThreadTransfersEverything) {
  SpscQueue<std::uint64_t> q(1024);
  constexpr std::uint64_t kCount = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount;) {
      if (q.try_push(std::uint64_t{i})) ++i;
    }
  });
  std::uint64_t expected = 0, sum = 0;
  while (expected < kCount) {
    if (auto v = q.try_pop()) {
      EXPECT_EQ(*v, expected);
      sum += *v;
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

TEST(MpmcQueue, PushPopSingleThread) {
  MpmcQueue<int> q(16);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));
  for (int i = 0; i < 16; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, ManyProducersManyConsumers) {
  MpmcQueue<std::uint64_t> q(256);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 50000;

  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer;) {
        if (q.try_push(static_cast<std::uint64_t>(p) * kPerProducer + i)) ++i;
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load() < kProducers * kPerProducer) {
        if (auto v = q.try_pop()) {
          sum.fetch_add(*v);
          consumed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(MpmcQueue, BulkPushPopSingleThread) {
  MpmcQueue<int> q(16);
  std::vector<int> in(20);
  std::iota(in.begin(), in.end(), 0);
  // Bulk push accepts only what fits (16 of 20).
  EXPECT_EQ(q.try_push_n({in.data(), in.size()}), 16u);
  EXPECT_EQ(q.try_push_n({in.data(), in.size()}), 0u);  // Full.
  int out[32];
  // Bulk pop returns what is available, in FIFO order.
  EXPECT_EQ(q.try_pop_n(out, 8), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(q.try_pop_n(out, 32), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], 8 + i);
  EXPECT_EQ(q.try_pop_n(out, 32), 0u);  // Empty.
  // Recycled slots keep working.
  EXPECT_EQ(q.try_push_n({in.data(), 4}), 4u);
  EXPECT_EQ(q.try_pop_n(out, 32), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
}

TEST(MpmcQueue, BulkMpmcStressNoLossNoDupFifoPerProducer) {
  // MPMC stress for the bulk ops: every pushed value arrives exactly once,
  // and each consumer observes every producer's values in push order
  // (bulk reservations must not interleave a producer's runs).
  MpmcQueue<std::uint64_t> q(256);
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 10000;

  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<bool> fifo_ok{true};
  std::vector<std::thread> threads;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      std::uint64_t batch[64];
      Pcg32 rng(17, p);
      for (std::uint64_t i = 0; i < kPerProducer;) {
        const std::uint64_t want =
            std::min<std::uint64_t>(1 + rng.bounded(64), kPerProducer - i);
        for (std::uint64_t k = 0; k < want; ++k) {
          batch[k] = (p << 32) | (i + k);
        }
        i += q.try_push_n({batch, want});
      }
    });
  }
  for (std::uint64_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t batch[64];
      std::uint64_t last_seq[kProducers];
      for (auto& s : last_seq) s = ~0ULL;
      while (consumed.load() < kProducers * kPerProducer) {
        const std::size_t got = q.try_pop_n(batch, 64);
        for (std::size_t k = 0; k < got; ++k) {
          const std::uint64_t p = batch[k] >> 32;
          const std::uint64_t seq = batch[k] & 0xffffffff;
          // Each consumer pops at increasing queue positions, so per
          // producer its observed sequence must be strictly increasing.
          if (last_seq[p] != ~0ULL && seq <= last_seq[p]) fifo_ok = false;
          last_seq[p] = seq;
          sum.fetch_add(seq);
        }
        if (got != 0) consumed.fetch_add(got);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(fifo_ok.load());
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  // Sum of sequence numbers: producers contribute identical 0..n-1 ranges.
  EXPECT_EQ(sum.load(), kProducers * (kPerProducer * (kPerProducer - 1) / 2));
}

TEST(MpmcQueue, BurstAndSingletonOpsInterleave) {
  // Mixed bulk/singleton producers and consumers share one queue without
  // losing FIFO: one producer alternates try_push / try_push_n, one
  // consumer alternates try_pop / try_pop_n, and the full sequence comes
  // out in order.
  MpmcQueue<std::uint64_t> q(64);
  constexpr std::uint64_t kCount = 30000;
  std::thread producer([&q] {
    std::uint64_t batch[32];
    Pcg32 rng(5);
    for (std::uint64_t i = 0; i < kCount;) {
      if (rng.bounded(2) == 0) {
        if (q.try_push(std::uint64_t{i})) ++i;
      } else {
        const std::uint64_t want =
            std::min<std::uint64_t>(1 + rng.bounded(32), kCount - i);
        for (std::uint64_t k = 0; k < want; ++k) batch[k] = i + k;
        i += q.try_push_n({batch, want});
      }
    }
  });
  std::uint64_t batch[32];
  std::uint64_t expected = 0;
  Pcg32 rng(6);
  while (expected < kCount) {
    if (rng.bounded(2) == 0) {
      if (auto v = q.try_pop()) {
        ASSERT_EQ(*v, expected);
        ++expected;
      }
    } else {
      const std::size_t got = q.try_pop_n(batch, 1 + rng.bounded(32));
      for (std::size_t k = 0; k < got; ++k) {
        ASSERT_EQ(batch[k], expected);
        ++expected;
      }
    }
  }
  producer.join();
  EXPECT_EQ(q.try_pop_n(batch, 32), 0u);
}

TEST(Pcg32, DeterministicForSameSeed) {
  Pcg32 a(42, 7), b(42, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentStreamsDiffer) {
  Pcg32 a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 10);
}

TEST(Pcg32, BoundedStaysInBounds) {
  Pcg32 rng(123);
  for (std::uint32_t bound : {1u, 2u, 3u, 10u, 1000u}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Pcg32, BoundedRoughlyUniform) {
  Pcg32 rng(9);
  constexpr std::uint32_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.bounded(kBound)];
  for (auto c : counts) {
    EXPECT_GT(c, kDraws / kBound * 0.9);
    EXPECT_LT(c, kDraws / kBound * 1.1);
  }
}

TEST(Pcg32, UniformInUnitInterval) {
  Pcg32 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Clock, MonotonicAndAdvances) {
  const auto a = now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto b = now_ns();
  EXPECT_GT(b, a);
  EXPECT_GE(b - a, 1'000'000u);
}

TEST(Clock, TscCalibrationSane) {
  const double hz = tsc_hz();
  // Any machine this runs on clocks between 100 MHz and 10 GHz.
  EXPECT_GT(hz, 1e8);
  EXPECT_LT(hz, 1e10);
  const auto c0 = rdtsc();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto c1 = rdtsc();
  const double ns = tsc_to_ns(c1 - c0);
  EXPECT_GT(ns, 2e6);
  EXPECT_LT(ns, 1e9);
}

TEST(Clock, SpinUntilReachesDeadline) {
  const auto deadline = now_ns() + 200'000;
  spin_until_ns(deadline);
  EXPECT_GE(now_ns(), deadline);
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_NEAR(h.mean(), 31.5, 1e-9);
}

TEST(Histogram, QuantilesOrderedAndBounded) {
  Histogram h;
  Pcg32 rng(77);
  for (int i = 0; i < 100000; ++i) h.record(rng.bounded(1'000'000));
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.max());
  // Uniform distribution: p50 should be around 500k within bucket error.
  EXPECT_NEAR(static_cast<double>(h.p50()), 500000.0, 500000.0 * 0.05);
}

TEST(Histogram, RelativePrecisionWithinFivePercent) {
  Histogram h;
  for (std::uint64_t v : {100ull, 10'000ull, 1'000'000ull, 123'456'789ull}) {
    h.reset();
    h.record(v);
    const auto q = h.quantile(1.0);
    EXPECT_GE(q, v);
    EXPECT_LE(static_cast<double>(q), static_cast<double>(v) * 1.05);
  }
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a, b;
  a.record(10);
  a.record(20);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(Histogram, CdfIsMonotone) {
  Histogram h;
  Pcg32 rng(3);
  for (int i = 0; i < 10000; ++i) h.record(rng.bounded(100000));
  const auto cdf = h.cdf();
  ASSERT_FALSE(cdf.empty());
  double prev = 0.0;
  std::uint64_t prev_v = 0;
  for (const auto& [v, f] : cdf) {
    EXPECT_GE(v, prev_v);
    EXPECT_GE(f, prev);
    prev = f;
    prev_v = v;
  }
  EXPECT_NEAR(cdf.back().second, 1.0, 1e-12);
}

TEST(RateLimiter, NeverExceedsConfiguredRateAndPacesDown) {
  // The limiter's hard guarantee is an upper bound on rate; the lower
  // bound depends on scheduler noise (this suite runs on a shared, often
  // single-core host), so only sanity-check it loosely.
  RateLimiter rl(200000.0);  // 200 kpps -> 5 us gap.
  const auto t0 = now_ns();
  constexpr int kPackets = 2000;
  for (int i = 0; i < kPackets; ++i) rl.wait();
  const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
  const double rate = kPackets / dt;
  EXPECT_LT(rate, 250000.0);
}

TEST(RateLimiter, UnlimitedDoesNotBlock) {
  RateLimiter rl(0.0);
  const auto t0 = now_ns();
  for (int i = 0; i < 100000; ++i) rl.wait();
  EXPECT_LT(now_ns() - t0, 100'000'000u);  // Far less than 1 ms/packet.
}

TEST(Meter, CountsAndRates) {
  Meter m;
  MeterSampler sampler(m);
  m.add(100, 6400);
  EXPECT_EQ(m.packets(), 100u);
  EXPECT_EQ(m.bytes(), 6400u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GT(sampler.pps(), 0.0);
  EXPECT_GT(sampler.gbps(), 0.0);
}

TEST(Worker, RunsAndStops) {
  std::atomic<int> iterations{0};
  Worker w("test", [&] {
    iterations.fetch_add(1);
    return true;
  });
  while (iterations.load() < 100) std::this_thread::yield();
  w.stop();
  const int at_stop = iterations.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(iterations.load(), at_stop);
}

TEST(Worker, IdleBackoffStillPolls) {
  std::atomic<int> polls{0};
  Worker w("idle", [&] {
    polls.fetch_add(1);
    return false;  // Always idle.
  });
  EXPECT_TRUE(test::wait_until([&] { return polls.load() > 10; }, 5s))
      << polls.load() << " polls";
  w.stop();
}

}  // namespace
}  // namespace sfc::rt
