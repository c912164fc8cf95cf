// Tests for the network simulation substrate: links (delay, loss,
// reordering, backpressure) and the control plane (ordering, delays,
// regions, bandwidth).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/control.hpp"
#include "runtime/clock.hpp"
#include "net/link.hpp"
#include "packet/packet_io.hpp"
#include "runtime/worker.hpp"
#include "wait_until.hpp"

namespace sfc::net {
namespace {

using namespace std::chrono_literals;

pkt::Packet* make_packet(pkt::PacketPool& pool, std::uint64_t id) {
  pkt::Packet* p = pool.alloc_raw();
  if (p != nullptr) {
    pkt::PacketBuilder(*p).udp(
        pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 64);
    p->anno().packet_id = id;
  }
  return p;
}

TEST(Link, FastPathDeliversInOrder) {
  pkt::PacketPool pool(64);
  Link link(pool, LinkConfig{});
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(link.send(make_packet(pool, i)));
  }
  for (std::uint64_t i = 0; i < 10; ++i) {
    pkt::Packet* p = link.poll();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->anno().packet_id, i);
    pool.free_raw(p);
  }
  EXPECT_EQ(link.poll(), nullptr);
  EXPECT_TRUE(link.drained());
}

TEST(Link, BackpressureWhenFull) {
  pkt::PacketPool pool(64);
  LinkConfig cfg;
  cfg.capacity = 4;
  Link link(pool, cfg);
  std::size_t accepted = 0;
  while (true) {
    pkt::Packet* p = make_packet(pool, accepted);
    if (!link.send(p)) {
      pool.free_raw(p);
      break;
    }
    ++accepted;
  }
  EXPECT_GE(accepted, 4u);
  EXPECT_GT(link.stats().dropped_full, 0u);
  pool.free_raw(link.poll());
  EXPECT_TRUE(link.send(make_packet(pool, 99)));
}

TEST(Link, BlockedSendGivesUpWhenItsWorkerStops) {
  // A worker blocked on a link nobody drains must not hold stop() for the
  // send timeout: it observes its stop flag and keeps the packet.
  pkt::PacketPool pool(32);
  LinkConfig cfg;
  cfg.capacity = 4;
  Link link(pool, cfg);
  for (std::uint64_t i = 0; link.send(make_packet(pool, i)); ++i) {
  }
  std::atomic<bool> blocked{false};
  rt::Worker worker("blocked-sender", [&] {
    // Eight sends into the full link: a path blind to the stop flag waits
    // out the 1 s timeout of each.
    for (std::uint64_t i = 0; i < 8; ++i) {
      pkt::Packet* p = make_packet(pool, 100 + i);
      if (p == nullptr) return false;
      blocked.store(true);
      if (!link.send_blocking(p)) pool.free_raw(p);
    }
    return true;
  });
  ASSERT_TRUE(test::wait_until([&] { return blocked.load(); }, 5s));
  const std::uint64_t t0 = rt::now_ns();
  worker.stop();
  EXPECT_LT(rt::now_ns() - t0, 1'000'000'000u);
  while (pkt::Packet* p = link.poll()) pool.free_raw(p);
}

TEST(Link, DelayHoldsPacketsUntilDue) {
  pkt::PacketPool pool(8);
  LinkConfig cfg;
  cfg.delay_ns = 20'000'000;  // 20 ms.
  Link link(pool, cfg);
  ASSERT_TRUE(link.send(make_packet(pool, 1)));
  EXPECT_EQ(link.poll(), nullptr);  // Not yet deliverable.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  pkt::Packet* p = link.poll();
  ASSERT_NE(p, nullptr);
  pool.free_raw(p);
}

TEST(Link, LossDropsRoughlyAtConfiguredRate) {
  pkt::PacketPool pool(64);
  LinkConfig cfg;
  cfg.loss = 0.3;
  cfg.delay_ns = 1;  // Force the timed path.
  Link link(pool, cfg);
  constexpr int kPackets = 4000;
  for (int i = 0; i < kPackets; ++i) {
    pkt::Packet* p = make_packet(pool, i);
    ASSERT_NE(p, nullptr);
    ASSERT_TRUE(link.send(p));
    std::this_thread::sleep_for(std::chrono::microseconds(1));
    if (pkt::Packet* out = link.poll()) pool.free_raw(out);
  }
  const auto stats = link.stats();
  const double loss_rate =
      static_cast<double>(stats.dropped_loss) / kPackets;
  EXPECT_NEAR(loss_rate, 0.3, 0.05);
  // Lost packets were returned to the pool, not leaked: drain and count.
  const auto drained = [&] {
    while (pkt::Packet* p = link.poll()) pool.free_raw(p);
    return link.drained();
  };
  ASSERT_TRUE(test::wait_until(drained, 5s));
  EXPECT_EQ(pool.available_approx(), 64u);
}

TEST(Link, ReorderingDeliversAllPackets) {
  pkt::PacketPool pool(256);
  LinkConfig cfg;
  cfg.delay_ns = 1000;
  cfg.reorder = 0.3;
  // The extra delay must comfortably exceed the duration of the send loop
  // below, or all packets become deliverable before polling starts and
  // arrive in order (seen under TSan, whose instrumentation slows the 200
  // sends past a 100 us window).
  cfg.reorder_extra_ns = 20'000'000;
  Link link(pool, cfg);
  constexpr std::uint64_t kPackets = 200;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    ASSERT_TRUE(link.send(make_packet(pool, i)));
  }
  std::vector<std::uint64_t> order;
  const auto deadline = rt::now_ns() + 2'000'000'000ull;
  while (order.size() < kPackets && rt::now_ns() < deadline) {
    if (pkt::Packet* p = link.poll()) {
      order.push_back(p->anno().packet_id);
      pool.free_raw(p);
    }
  }
  ASSERT_EQ(order.size(), kPackets);
  // With 30% reordering, delivery must NOT be fully in order.
  bool out_of_order = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    out_of_order |= order[i] < order[i - 1];
  }
  EXPECT_TRUE(out_of_order);
}

TEST(Link, ReorderLetsLaterPacketPassDelayedHead) {
  // Deterministic reorder: with loss == 0 the k-th send's reorder draw
  // hashes exactly (k ^ ~seed). Pick a seed where packet 0 is reordered
  // (delayed by reorder_extra_ns) and packet 1 is not, then check poll()
  // delivers packet 1 past the still-delayed head.
  LinkConfig cfg;
  cfg.delay_ns = 1'000'000;           // 1 ms base delay.
  cfg.reorder = 0.5;
  cfg.reorder_extra_ns = 60'000'000'000ull;  // Far beyond the test horizon.
  const auto reordered = [&](std::uint64_t counter, std::uint64_t seed) {
    const std::uint64_t draw = rt::splitmix64(counter ^ ~seed);
    return static_cast<double>(draw >> 11) * 0x1.0p-53 < cfg.reorder;
  };
  std::uint64_t seed = 0;
  while (!(reordered(0, seed) && !reordered(1, seed))) ++seed;
  cfg.seed = seed;

  pkt::PacketPool pool(8);
  Link link(pool, cfg);
  ASSERT_TRUE(link.send(make_packet(pool, 0)));  // Reordered: held back.
  ASSERT_TRUE(link.send(make_packet(pool, 1)));  // On time.

  pkt::Packet* p = nullptr;
  const auto deadline = rt::now_ns() + 1'000'000'000ull;
  while (p == nullptr && rt::now_ns() < deadline) p = link.poll();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->anno().packet_id, 1u);  // Passed the delayed head.
  pool.free_raw(p);
  EXPECT_EQ(link.poll(), nullptr);  // Packet 0 still held back.
  EXPECT_FALSE(link.drained());
}

TEST(Link, BurstFastPathDeliversInOrderAndCounts) {
  pkt::PacketPool pool(64);
  Link link(pool, LinkConfig{});
  pkt::Packet* tx[16];
  for (std::uint64_t i = 0; i < 16; ++i) tx[i] = make_packet(pool, i);
  EXPECT_EQ(link.send_burst({tx, 16}), 16u);
  EXPECT_EQ(link.stats().sent, 16u);
  pkt::Packet* rx[16];
  // Mixed drain: singleton poll interleaves with bursts, order preserved.
  pkt::Packet* first = link.poll();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->anno().packet_id, 0u);
  pool.free_raw(first);
  EXPECT_EQ(link.poll_burst(rx, 7), 7u);
  for (std::uint64_t i = 0; i < 7; ++i) {
    EXPECT_EQ(rx[i]->anno().packet_id, 1 + i);
    pool.free_raw(rx[i]);
  }
  EXPECT_EQ(link.poll_burst(rx, 16), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rx[i]->anno().packet_id, 8 + i);
    pool.free_raw(rx[i]);
  }
  EXPECT_EQ(link.poll_burst(rx, 16), 0u);
  EXPECT_EQ(link.stats().delivered, 16u);
  EXPECT_TRUE(link.drained());
}

TEST(Link, BurstFastPathAcceptsPrefixWhenNearlyFull) {
  pkt::PacketPool pool(64);
  LinkConfig cfg;
  cfg.capacity = 8;
  Link link(pool, cfg);
  pkt::Packet* tx[12];
  for (std::uint64_t i = 0; i < 12; ++i) tx[i] = make_packet(pool, i);
  const std::size_t accepted = link.send_burst({tx, 12});
  EXPECT_EQ(accepted, 8u);  // The queue's capacity.
  for (std::size_t i = accepted; i < 12; ++i) pool.free_raw(tx[i]);
  EXPECT_EQ(link.send_burst({tx, 0}), 0u);
  pkt::Packet* rx[12];
  EXPECT_EQ(link.poll_burst(rx, 12), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rx[i]->anno().packet_id, i);
    pool.free_raw(rx[i]);
  }
}

TEST(Link, BurstTimedPathKeepsPerPacketLossSemantics) {
  // send_burst on a lossy link must take the same per-packet loss draws as
  // N send() calls: with the deterministic counter-hash RNG, the set of
  // surviving packet ids is identical.
  constexpr std::uint64_t kPackets = 512;
  LinkConfig cfg;
  cfg.loss = 0.3;
  cfg.delay_ns = 1;  // Force the timed path.
  std::vector<std::uint64_t> singleton_survivors;
  {
    pkt::PacketPool pool(1024);
    Link link(pool, cfg);
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      ASSERT_TRUE(link.send(make_packet(pool, i)));
    }
    const auto all_delivered = [&] {
      pkt::Packet* rx[64];
      std::size_t got;
      while ((got = link.poll_burst(rx, 64)) != 0) {
        for (std::size_t i = 0; i < got; ++i) {
          singleton_survivors.push_back(rx[i]->anno().packet_id);
          pool.free_raw(rx[i]);
        }
      }
      return link.drained();
    };
    ASSERT_TRUE(test::wait_until(all_delivered, 5s));
  }
  std::vector<std::uint64_t> burst_survivors;
  {
    pkt::PacketPool pool(1024);
    Link link(pool, cfg);
    pkt::Packet* tx[64];
    for (std::uint64_t base = 0; base < kPackets; base += 64) {
      for (std::uint64_t i = 0; i < 64; ++i) tx[i] = make_packet(pool, base + i);
      ASSERT_EQ(link.send_burst({tx, 64}), 64u);
    }
    const auto all_delivered = [&] {
      while (pkt::Packet* p = link.poll()) {
        burst_survivors.push_back(p->anno().packet_id);
        pool.free_raw(p);
      }
      return link.drained();
    };
    ASSERT_TRUE(test::wait_until(all_delivered, 5s));
  }
  EXPECT_FALSE(singleton_survivors.empty());
  EXPECT_LT(singleton_survivors.size(), kPackets);
  EXPECT_EQ(burst_survivors, singleton_survivors);
}

TEST(Link, BurstPollWithReorderMatchesSingletonSemantics) {
  // poll_burst on a reordering link must deliver exactly the packets N
  // poll() calls would: ready head packets in order, with held-back
  // (reordered) packets skipped until their extra delay elapses.
  LinkConfig cfg;
  cfg.delay_ns = 1'000'000;                  // 1 ms base delay.
  cfg.reorder = 0.5;
  cfg.reorder_extra_ns = 60'000'000'000ull;  // Beyond the test horizon.
  // Deterministic draws (see ReorderLetsLaterPacketPassDelayedHead): pick a
  // seed where some of the first 8 packets are held and some pass.
  const auto reordered = [&](std::uint64_t counter, std::uint64_t seed) {
    const std::uint64_t draw = rt::splitmix64(counter ^ ~seed);
    return static_cast<double>(draw >> 11) * 0x1.0p-53 < cfg.reorder;
  };
  std::uint64_t seed = 0;
  const auto mask_of = [&](std::uint64_t s) {
    std::uint64_t m = 0;
    for (std::uint64_t i = 0; i < 8; ++i) m |= std::uint64_t{reordered(i, s)} << i;
    return m;
  };
  while (mask_of(seed) == 0 || mask_of(seed) == 0xff) ++seed;
  cfg.seed = seed;

  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < 8; ++i) {
    if (!reordered(i, seed)) expected.push_back(i);
  }

  pkt::PacketPool pool(16);
  Link link(pool, cfg);
  pkt::Packet* tx[8];
  for (std::uint64_t i = 0; i < 8; ++i) tx[i] = make_packet(pool, i);
  ASSERT_EQ(link.send_burst({tx, 8}), 8u);

  // One burst drain (after the base delay) must surface exactly the
  // on-time packets, in order, skipping the held ones.
  pkt::Packet* rx[8];
  std::vector<std::uint64_t> got_ids;
  const auto deadline = rt::now_ns() + 2'000'000'000ull;
  while (got_ids.size() < expected.size() && rt::now_ns() < deadline) {
    const std::size_t got = link.poll_burst(rx, 8);
    for (std::size_t i = 0; i < got; ++i) {
      got_ids.push_back(rx[i]->anno().packet_id);
      pool.free_raw(rx[i]);
    }
  }
  EXPECT_EQ(got_ids, expected);
  EXPECT_EQ(link.poll_burst(rx, 8), 0u);  // Held packets still held.
  EXPECT_FALSE(link.drained());
}

TEST(Link, SendBlockingCountsRetries) {
  obs::Registry registry;
  pkt::PacketPool pool(16);
  LinkConfig cfg;
  cfg.capacity = 2;
  Link link(pool, cfg, &registry, "retry-link");
  ASSERT_TRUE(link.send(make_packet(pool, 0)));
  ASSERT_TRUE(link.send(make_packet(pool, 1)));
  pkt::Packet* p = make_packet(pool, 2);
  EXPECT_FALSE(link.send_blocking(p, 2'000'000));  // 2 ms timeout.
  pool.free_raw(p);
  const obs::Labels labels{{"link", "retry-link"}};
  EXPECT_GT(registry.counter("link.send_retries", labels).value(), 0u);

  // A successful blocking send after drain adds no further retries once
  // the queue has room.
  const auto retries_before =
      registry.counter("link.send_retries", labels).value();
  pool.free_raw(link.poll());
  EXPECT_TRUE(link.send_blocking(make_packet(pool, 3)));
  EXPECT_EQ(registry.counter("link.send_retries", labels).value(),
            retries_before);
}

TEST(Link, SendBlockingTimesOut) {
  pkt::PacketPool pool(16);
  LinkConfig cfg;
  cfg.capacity = 2;
  Link link(pool, cfg);
  ASSERT_TRUE(link.send(make_packet(pool, 0)));
  ASSERT_TRUE(link.send(make_packet(pool, 1)));
  pkt::Packet* p = make_packet(pool, 2);
  EXPECT_FALSE(link.send_blocking(p, 5'000'000));  // 5 ms timeout.
  pool.free_raw(p);
}

TEST(ControlPlane, DeliversInOrderPerSender) {
  ControlPlane cp;
  cp.register_node(1);
  for (std::uint32_t i = 0; i < 10; ++i) {
    Message m;
    m.type = 100 + i;
    m.from = 2;
    m.to = 1;
    cp.send(std::move(m));
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    auto msg = cp.poll(1);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->type, 100 + i);
  }
  EXPECT_FALSE(cp.poll(1).has_value());
}

TEST(ControlPlane, InboxDueTracksTheEarliestDeliverableMessage) {
  ControlPlane cp;
  ControlPlane::Inbox& inbox = cp.register_node(1);
  EXPECT_EQ(&cp.register_node(1), &inbox);
  EXPECT_FALSE(inbox.due(rt::now_ns()));
  // A message on a delayed pair is not due before its delivery time.
  cp.set_delay(1, 2, 50'000'000);
  Message late;
  late.from = 2;
  late.to = 1;
  late.type = 7;
  cp.send(std::move(late));
  EXPECT_FALSE(inbox.due(rt::now_ns()));
  EXPECT_TRUE(inbox.due(rt::now_ns() + 60'000'000));
  // One from an undelayed sender moves the earliest time to now.
  Message now;
  now.from = 3;
  now.to = 1;
  cp.send(std::move(now));
  EXPECT_TRUE(inbox.due(rt::now_ns()));
  ASSERT_TRUE(cp.poll(1).has_value());
  EXPECT_FALSE(inbox.due(rt::now_ns()));
  // wait_for() takes the delayed one out of the queue: nothing is left.
  ASSERT_TRUE(cp.wait_for(1, 7, 200'000'000).has_value());
  EXPECT_FALSE(inbox.due(~0ULL - 1));
}

TEST(ControlPlane, UnknownDestinationDropped) {
  ControlPlane cp;
  Message m;
  m.to = 42;
  cp.send(std::move(m));  // Must not crash or queue anywhere.
}

TEST(ControlPlane, PairDelayHoldsDelivery) {
  ControlPlane cp;
  cp.register_node(1);
  cp.set_delay(1, 2, 30'000'000);  // 30 ms one way.
  Message m;
  m.from = 2;
  m.to = 1;
  m.type = 7;
  const auto t0 = rt::now_ns();
  cp.send(std::move(m));
  EXPECT_FALSE(cp.poll(1).has_value());
  auto got = cp.wait_for(1, 7, 1'000'000'000);
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(rt::now_ns() - t0, 30'000'000u);
}

TEST(ControlPlane, RegionDelaysAndOverrides) {
  ControlPlane cp;
  cp.set_region(1, 0);
  cp.set_region(2, 1);
  cp.set_region(3, 1);
  cp.set_inter_region_delay(10'000'000);
  cp.set_region_delay(0, 1, 25'000'000);
  EXPECT_EQ(cp.delay_between(1, 2), 25'000'000u);  // Pair override.
  EXPECT_EQ(cp.delay_between(2, 3), 0u);           // Same region.
  cp.set_region(4, 2);
  EXPECT_EQ(cp.delay_between(1, 4), 10'000'000u);  // Default inter-region.
}

TEST(ControlPlane, BandwidthDelaysLargePayloads) {
  ControlPlane cp;
  cp.register_node(1);
  cp.set_bandwidth_gbps(1.0);  // 8 ns per byte.
  Message m;
  m.from = 2;
  m.to = 1;
  m.type = 9;
  m.payload.resize(1'000'000);  // ~8 ms at 1 Gbps.
  const auto t0 = rt::now_ns();
  cp.send(std::move(m));
  auto got = cp.wait_for(1, 9, 1'000'000'000);
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(rt::now_ns() - t0, 7'000'000u);
}

TEST(ControlPlane, WaitForFiltersByTypeAndTag) {
  ControlPlane cp;
  cp.register_node(1);
  Message noise;
  noise.to = 1;
  noise.type = 1;
  cp.send(std::move(noise));
  Message wrong_tag;
  wrong_tag.to = 1;
  wrong_tag.type = 2;
  wrong_tag.tag = 5;
  cp.send(std::move(wrong_tag));
  Message target;
  target.to = 1;
  target.type = 2;
  target.tag = 9;
  cp.send(std::move(target));

  auto got = cp.wait_for(1, 2, 100'000'000, /*tag=*/9);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 9u);
  // The other messages were requeued, not lost.
  int remaining = 0;
  while (cp.poll(1)) ++remaining;
  EXPECT_EQ(remaining, 2);
}

TEST(ControlPlane, WaitForPreservesOrderOfSkippedMessages) {
  // Regression: wait_for used to pull non-matching messages out of the
  // inbox and re-queue them stamped with the CURRENT time, which moved
  // them behind messages sent later. They must keep their slot.
  ControlPlane cp;
  cp.register_node(1);
  Message a;
  a.to = 1;
  a.type = 1;
  a.tag = 100;
  cp.send(std::move(a));
  Message b;
  b.to = 1;
  b.type = 2;
  cp.send(std::move(b));
  Message c;
  c.to = 1;
  c.type = 1;
  c.tag = 101;
  cp.send(std::move(c));

  auto got = cp.wait_for(1, 2, 100'000'000);
  ASSERT_TRUE(got.has_value());

  // The two skipped type-1 messages still arrive in send order.
  auto first = cp.poll(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tag, 100u);
  auto second = cp.poll(1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tag, 101u);
  EXPECT_FALSE(cp.poll(1).has_value());
}

TEST(ControlPlane, WaitForDoesNotHideMessagesFromConcurrentConsumers) {
  // Regression: wait_for used to pull every deliverable non-matching
  // message into a private stash and only re-queue the stash when IT
  // finished — a concurrent consumer of those messages starved for the
  // full duration of the first consumer's wait.
  ControlPlane cp;
  cp.register_node(1);
  Message m;
  m.to = 1;
  m.type = 1;
  cp.send(std::move(m));

  // Consumer 1 waits for a type that never arrives, scanning past the
  // type-1 message for 600 ms.
  std::thread blocked([&cp] {
    EXPECT_FALSE(cp.wait_for(1, 2, 600'000'000).has_value());
  });
  // Give it time to have scanned the inbox at least once.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Consumer 2 must still see the type-1 message while consumer 1 waits.
  auto got = cp.wait_for(1, 1, 200'000'000);
  EXPECT_TRUE(got.has_value());
  blocked.join();
}

TEST(ControlPlane, WaitForInterleavedWithDelayedSends) {
  // A wait_for spinning on a delayed target must leave an immediately
  // deliverable non-matching message in the inbox, untouched.
  ControlPlane cp;
  cp.register_node(1);
  cp.set_delay(5, 1, 30'000'000);  // 30 ms from sender 5.
  Message noise;
  noise.from = 2;
  noise.to = 1;
  noise.type = 3;
  cp.send(std::move(noise));
  Message target;
  target.from = 5;
  target.to = 1;
  target.type = 4;
  const auto t0 = rt::now_ns();
  cp.send(std::move(target));

  auto got = cp.wait_for(1, 4, 1'000'000'000);
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(rt::now_ns() - t0, 30'000'000u);
  auto leftover = cp.poll(1);
  ASSERT_TRUE(leftover.has_value());
  EXPECT_EQ(leftover->type, 3u);
}

TEST(ControlPlane, MixedPairDelaysDeliverByArrivalTime) {
  // Per-pair delays differ per sender: a message sent LATER over a fast
  // pair overtakes one sent earlier over a slow pair, and both arrive no
  // earlier than their own delay.
  ControlPlane cp;
  cp.register_node(1);
  cp.set_delay(2, 1, 60'000'000);  // Slow pair: 60 ms.
  cp.set_delay(3, 1, 5'000'000);   // Fast pair: 5 ms.
  Message slow;
  slow.from = 2;
  slow.to = 1;
  slow.type = 7;
  Message fast;
  fast.from = 3;
  fast.to = 1;
  fast.type = 8;
  const auto t0 = rt::now_ns();
  cp.send(std::move(slow));
  cp.send(std::move(fast));

  // Generic wait (any type arriving first) must surface the fast-pair
  // message even though it was enqueued second.
  std::optional<Message> first;
  while (!first.has_value() && rt::now_ns() - t0 < 1'000'000'000ull) {
    first = cp.poll(1);
  }
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, 8u);
  EXPECT_GE(rt::now_ns() - t0, 5'000'000u);

  auto second = cp.wait_for(1, 7, 1'000'000'000);
  ASSERT_TRUE(second.has_value());
  EXPECT_GE(rt::now_ns() - t0, 60'000'000u);
}

TEST(ControlPlane, CountsRegistryMetrics) {
  obs::Registry registry;
  ControlPlane cp(&registry);
  cp.register_node(1);
  Message m;
  m.to = 1;
  m.type = 5;
  cp.send(std::move(m));
  Message dropped;
  dropped.to = 99;
  cp.send(std::move(dropped));
  ASSERT_TRUE(cp.wait_for(1, 5, 100'000'000).has_value());
  EXPECT_FALSE(cp.wait_for(1, 6, 1'000).has_value());

  EXPECT_EQ(registry.counter("ctrl.msgs_sent").value(), 2u);
  EXPECT_EQ(registry.counter("ctrl.msgs_delivered").value(), 1u);
  EXPECT_EQ(registry.counter("ctrl.msgs_dropped_unknown_dest").value(), 1u);
  EXPECT_EQ(registry.counter("ctrl.wait_for_timeouts").value(), 1u);
}

TEST(Link, CounterInvariantHoldsOnLossyPath) {
  // Accounting convention: `sent` counts every packet the link ACCEPTED,
  // including ones the loss model consumed on the wire. After a full
  // drain, sent == delivered + dropped_loss on every path (the regression
  // was a wire drop returning true without counting as sent).
  pkt::PacketPool pool(1024);
  LinkConfig cfg;
  cfg.loss = 0.3;
  cfg.delay_ns = 1000;
  Link link(pool, cfg);
  constexpr std::uint64_t kSingles = 300;
  for (std::uint64_t i = 0; i < kSingles; ++i) {
    ASSERT_TRUE(link.send(make_packet(pool, i)));
  }
  // Burst sends share the same convention.
  pkt::Packet* burst[32];
  std::uint64_t accepted = kSingles;
  for (int round = 0; round < 8; ++round) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      burst[i] = make_packet(pool, 1000 + i);
      ASSERT_NE(burst[i], nullptr);
    }
    accepted += link.send_burst({burst, 32});
  }
  const auto drained = [&] {
    pkt::Packet* rx[64];
    while (std::size_t n = link.poll_burst(rx, 64)) {
      for (std::size_t i = 0; i < n; ++i) pool.free_raw(rx[i]);
    }
    return link.drained();
  };
  ASSERT_TRUE(test::wait_until(drained, 5s));
  const LinkStats s = link.stats();
  EXPECT_EQ(s.sent, accepted);
  EXPECT_EQ(s.sent, s.delivered + s.dropped_loss);
  EXPECT_GT(s.dropped_loss, 0u);
  // Nothing leaked: every accepted packet is back in the pool.
  EXPECT_EQ(pool.available_approx(), 1024u);
}

TEST(Link, ReorderStreamIndependentOfLossRate) {
  // Loss and reorder draws come from separate deterministic streams: the
  // j-th SURVIVING packet must take the same reorder decision regardless
  // of the loss rate. (With the old shared counter, every loss draw
  // advanced the reorder stream, correlating the two.) Held packets are
  // identified positionally: reorder_extra is far beyond the test
  // horizon, so polled = not held, deterministically.
  constexpr std::uint64_t kPackets = 400;
  constexpr std::uint64_t kSeed = 12345;
  const auto held_ranks = [&](double loss) {
    pkt::PacketPool pool(kPackets + 8);
    LinkConfig cfg;
    cfg.delay_ns = 1000;
    cfg.loss = loss;
    cfg.reorder = 0.3;
    cfg.reorder_extra_ns = 3'600'000'000'000ull;  // 1 h: never delivered.
    cfg.seed = kSeed;
    Link link(pool, cfg);
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      EXPECT_TRUE(link.send(make_packet(pool, i)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::vector<bool> delivered(kPackets, false);
    while (pkt::Packet* p = link.poll()) {
      delivered[p->anno().packet_id] = true;
      pool.free_raw(p);
    }
    // Survivor rank -> held? (survivors = delivered + held-in-queue; the
    // lost ones took no reorder draw at all).
    const std::uint64_t survivors = link.stats().sent -
                                    link.stats().dropped_loss;
    std::vector<bool> held;
    std::uint64_t seen = 0;
    for (std::uint64_t i = 0; i < kPackets && seen < survivors; ++i) {
      // A packet is a survivor iff it was delivered or still queued; the
      // queued (held) ones are exactly the survivors not delivered.
      // Identify survivors by replaying the loss stream.
      const std::uint64_t draw = rt::splitmix64(i ^ kSeed);
      const bool lost =
          loss > 0.0 &&
          static_cast<double>(draw >> 11) * 0x1.0p-53 < loss;
      if (lost) continue;
      ++seen;
      held.push_back(!delivered[i]);
    }
    return held;
  };

  const std::vector<bool> base = held_ranks(0.0);
  const std::vector<bool> lossy = held_ranks(0.4);
  ASSERT_GT(lossy.size(), 100u);
  ASSERT_GE(base.size(), lossy.size());
  std::size_t held_count = 0;
  for (std::size_t j = 0; j < lossy.size(); ++j) {
    EXPECT_EQ(base[j], lossy[j]) << "survivor rank " << j;
    held_count += lossy[j];
  }
  // And the reorder rate itself stays near the configured probability.
  EXPECT_NEAR(static_cast<double>(held_count) / lossy.size(), 0.3, 0.08);
}

}  // namespace
}  // namespace sfc::net
