// Tests for the windowed reliable transport (net::ReliableChannel):
// lossless in-order delivery under loss/reorder at burst granularity,
// adaptive RTO (Jacobson/Karels convergence, Karn's rule, no spurious
// retransmits), sequence wraparound, and the chain-level integration
// (FTC over reliable segments loses nothing end to end).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/chain.hpp"
#include "mbox/monitor.hpp"
#include "net/reliable.hpp"
#include "packet/packet_io.hpp"
#include "runtime/clock.hpp"
#include "wait_until.hpp"
#include "tgen/traffic.hpp"

namespace sfc::net {
namespace {

pkt::Packet* make_packet(pkt::PacketPool& pool, std::uint64_t id) {
  pkt::Packet* p = pool.alloc_raw();
  if (p != nullptr) {
    pkt::PacketBuilder(*p).udp(
        pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 64);
    p->anno().packet_id = id;
  }
  return p;
}

/// Single-threaded echo pump: pushes @p total packets through the channel
/// in bursts of @p burst, draining and verifying in-order delivery as it
/// goes. Returns the ids received, in delivery order.
std::vector<std::uint64_t> pump_through(ReliableChannel& ch,
                                        pkt::PacketPool& pool,
                                        std::uint64_t total,
                                        std::size_t burst,
                                        std::uint64_t budget_ns =
                                            20'000'000'000ull) {
  std::vector<std::uint64_t> got;
  got.reserve(total);
  std::uint64_t next_id = 0;
  pkt::Packet* tx[256];
  pkt::Packet* rx[256];
  const std::uint64_t deadline = rt::now_ns() + budget_ns;
  while (got.size() < total && rt::now_ns() < deadline) {
    std::size_t n = 0;
    while (n < burst && next_id < total) {
      pkt::Packet* p = make_packet(pool, next_id);
      if (p == nullptr) break;
      tx[n++] = p;
      ++next_id;
    }
    if (n != 0) {
      const std::size_t accepted = ch.send_burst({tx, n});
      // Window or wire full: hand the tail back and retry next round.
      for (std::size_t i = accepted; i < n; ++i) pool.free_raw(tx[i]);
      next_id -= n - accepted;
    }
    const std::size_t r = ch.poll_burst(rx, 256);
    for (std::size_t i = 0; i < r; ++i) {
      got.push_back(rx[i]->anno().packet_id);
      pool.free_raw(rx[i]);
    }
  }
  return got;
}

/// Pumps the channel until every ack has landed and the window is empty
/// (the final acks are still on the modeled reverse wire when the last
/// data packet is delivered).
bool pump_until_drained(ReliableChannel& ch, pkt::PacketPool& pool) {
  pkt::Packet* rx[64];
  return test::wait_until(
      [&] {
        const std::size_t n = ch.poll_burst(rx, 64);
        for (std::size_t i = 0; i < n; ++i) pool.free_raw(rx[i]);
        return ch.drained();
      },
      std::chrono::seconds(5), std::chrono::microseconds(20));
}

LinkConfig lossy_wan() {
  LinkConfig cfg;
  cfg.delay_ns = 30'000;
  cfg.loss = 0.05;
  cfg.reorder = 0.1;
  cfg.reorder_extra_ns = 60'000;
  return cfg;
}

TEST(ReliableChannel, LosslessInOrderDeliveryUnderLossAndReorder) {
  pkt::PacketPool pool(512);
  ReliableConfig rcfg;
  rcfg.rto_min_ns = 100'000;
  ReliableChannel ch(pool, lossy_wan(), rcfg);
  constexpr std::uint64_t kPackets = 2000;
  const auto got = pump_through(ch, pool, kPackets, 1);
  ASSERT_EQ(got.size(), kPackets) << "transport lost packets";
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    ASSERT_EQ(got[i], i) << "out-of-order or duplicated delivery at " << i;
  }
  EXPECT_TRUE(pump_until_drained(ch, pool));
  // 5% wire loss over 2000 packets must have exercised retransmission.
  EXPECT_GT(ch.retransmits(), 0u);
  const LinkStats s = ch.stats();
  EXPECT_EQ(s.sent, kPackets);
  EXPECT_EQ(s.delivered, kPackets);
  EXPECT_EQ(s.dropped_loss, 0u);
  EXPECT_GT(ch.wire().stats().dropped_loss, 0u);
}

TEST(ReliableChannel, BurstWindowStressMatchesSingletonSemantics) {
  // Burst 1 and burst 32 must both deliver everything exactly once, in
  // order, at loss=0.05 / reorder=0.1 — and differ from a raw link with
  // the same wire config, which visibly loses packets.
  for (const std::size_t burst : {std::size_t{1}, std::size_t{32}}) {
    pkt::PacketPool pool(512);
    ReliableConfig rcfg;
    rcfg.rto_min_ns = 100'000;
    ReliableChannel ch(pool, lossy_wan(), rcfg);
    constexpr std::uint64_t kPackets = 3000;
    const auto got = pump_through(ch, pool, kPackets, burst);
    ASSERT_EQ(got.size(), kPackets) << "burst=" << burst;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      ASSERT_EQ(got[i], i) << "burst=" << burst << " index " << i;
    }
  }
  // Raw-link differential: same wire, no transport -> loss is end-to-end.
  pkt::PacketPool pool(512);
  Link raw(pool, lossy_wan());
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  pkt::Packet* rx[64];
  for (std::uint64_t i = 0; i < 3000; ++i) {
    pkt::Packet* p = make_packet(pool, i);
    if (p == nullptr || !raw.send(p)) {
      if (p != nullptr) pool.free_raw(p);
      continue;
    }
    ++sent;
    while (std::size_t n = raw.poll_burst(rx, 64)) {
      received += n;
      for (std::size_t j = 0; j < n; ++j) pool.free_raw(rx[j]);
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  while (std::size_t n = raw.poll_burst(rx, 64)) {
    received += n;
    for (std::size_t j = 0; j < n; ++j) pool.free_raw(rx[j]);
  }
  EXPECT_LT(received, sent);  // P(zero drops in 3000 at 5%) ~ 10^-67.
}

TEST(ReliableChannel, SequenceWraparoundDeliversInOrder) {
  pkt::PacketPool pool(512);
  ReliableConfig rcfg;
  rcfg.rto_min_ns = 100'000;
  rcfg.initial_seq = 0xFFFFFF9Cu;  // 2^32 - 100: wraps mid-run.
  ReliableChannel ch(pool, lossy_wan(), rcfg);
  constexpr std::uint64_t kPackets = 1500;
  const auto got = pump_through(ch, pool, kPackets, 32);
  ASSERT_EQ(got.size(), kPackets);
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    ASSERT_EQ(got[i], i) << "around-the-wrap delivery broke at " << i;
  }
  EXPECT_TRUE(pump_until_drained(ch, pool));
}

TEST(ReliableChannel, SrttConvergesAfterDelayStepWithoutSpuriousRetransmits) {
  pkt::PacketPool pool(256);
  LinkConfig wire;
  wire.delay_ns = 500'000;  // 0.5 ms one-way -> RTT ~1 ms.
  ReliableConfig rcfg;
  // Floor above any RTT in this test: a 4x delay step must adapt the
  // estimator WITHOUT a single timeout or retransmission firing.
  rcfg.rto_min_ns = 50'000'000;
  ReliableChannel ch(pool, wire, rcfg);

  const auto exchange = [&](std::uint64_t packets) {
    std::uint64_t done = 0;
    std::uint64_t id = 0;
    pkt::Packet* rx[64];
    const std::uint64_t deadline = rt::now_ns() + 30'000'000'000ull;
    while (done < packets && rt::now_ns() < deadline) {
      if (pkt::Packet* p = make_packet(pool, id)) {
        if (ch.send(p)) {
          ++id;
        } else {
          pool.free_raw(p);
        }
      }
      const std::size_t n = ch.poll_burst(rx, 64);
      for (std::size_t i = 0; i < n; ++i) pool.free_raw(rx[i]);
      done += n;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return done;
  };

  ASSERT_GE(exchange(200), 200u);
  const std::uint64_t srtt_before = ch.srtt_ns();
  // SRTT tracks ~RTT = 2 * delay (+ polling slop bounded by the 50 us
  // pacing above plus scheduler noise).
  EXPECT_GE(srtt_before, 1'000'000u);
  EXPECT_LE(srtt_before, 3'000'000u);

  ch.set_delay_ns(2'000'000);  // Step 0.5 ms -> 2 ms one-way (RTT ~4 ms).
  ASSERT_GE(exchange(200), 200u);
  const std::uint64_t srtt_after = ch.srtt_ns();
  EXPECT_GE(srtt_after, 3'500'000u);
  EXPECT_LE(srtt_after, 7'000'000u);
  // Adaptive RTO covers the new RTT.
  EXPECT_GE(ch.rto_ns(), srtt_after);

  // Lossless wire + RTO floor above RTT: any retransmit here is spurious.
  EXPECT_EQ(ch.retransmits(), 0u);
  EXPECT_EQ(ch.timeouts(), 0u);
  EXPECT_EQ(ch.fast_retransmits(), 0u);
}

TEST(ReliableChannel, AdaptiveRtoTracksLinkDelay) {
  // RTO = SRTT + 4*RTTVAR must land within [RTT, 4*RTT] for a steady
  // link — the fig13 acceptance bound, checked at two delays.
  for (const std::uint64_t delay : {200'000ull, 1'000'000ull}) {
    pkt::PacketPool pool(256);
    LinkConfig wire;
    wire.delay_ns = delay;
    ReliableConfig rcfg;
    rcfg.rto_min_ns = 100'000;
    ReliableChannel ch(pool, wire, rcfg);
    const auto got = pump_through(ch, pool, 400, 8);
    ASSERT_EQ(got.size(), 400u);
    const std::uint64_t rtt = 2 * delay;
    EXPECT_GE(ch.rto_ns(), rtt) << "delay=" << delay;
    // The absolute slack absorbs host scheduling noise (sanitizer builds
    // inflate drain latency well past the wire delay at these scales).
    EXPECT_LE(ch.rto_ns(), 4 * rtt + 10'000'000) << "delay=" << delay;
  }
}

TEST(ReliableChannel, ExponentialBackoffOnRepeatedTimeouts) {
  // A wire that eats everything: the head segment times out repeatedly,
  // and each timeout doubles the effective RTO (Karn's rule keeps the
  // retransmitted samples out of the estimator).
  pkt::PacketPool pool(64);
  LinkConfig wire;
  wire.delay_ns = 1000;
  wire.loss = 1.0;
  ReliableConfig rcfg;
  rcfg.rto_min_ns = 200'000;
  rcfg.rto_initial_ns = 200'000;
  ReliableChannel ch(pool, wire, rcfg);
  ASSERT_TRUE(ch.send(make_packet(pool, 0)));
  pkt::Packet* rx[4];
  const std::uint64_t t0 = rt::now_ns();
  std::uint64_t timeouts_seen = 0;
  while (timeouts_seen < 4 && rt::now_ns() < t0 + 10'000'000'000ull) {
    ch.poll_burst(rx, 4);  // Pumps the RTO machinery.
    timeouts_seen = ch.timeouts();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_GE(timeouts_seen, 4u);
  // 4 timeouts with doubling: 200us + 400us + 800us + 1.6ms >= 3ms total.
  EXPECT_GE(rt::now_ns() - t0, 3'000'000u);
  EXPECT_GE(ch.retransmits(), 4u);
  // The estimator never saw a sample (every segment was retransmitted).
  EXPECT_EQ(ch.srtt_ns(), 0u);
  EXPECT_FALSE(ch.drained());
}

TEST(ReliableChannel, CongestionAvoidanceStillDeliversEverything) {
  pkt::PacketPool pool(512);
  ReliableConfig rcfg;
  rcfg.rto_min_ns = 100'000;
  rcfg.congestion_avoidance = true;
  ReliableChannel ch(pool, lossy_wan(), rcfg);
  constexpr std::uint64_t kPackets = 2000;
  const auto got = pump_through(ch, pool, kPackets, 32);
  ASSERT_EQ(got.size(), kPackets);
  for (std::uint64_t i = 0; i < kPackets; ++i) ASSERT_EQ(got[i], i);
  EXPECT_TRUE(pump_until_drained(ch, pool));
}

TEST(ReliableChannel, ConcurrentSenderReceiverThreads) {
  // The deployment shape: one thread sends bursts, another polls. TSan
  // coverage for the window/estimator locking.
  pkt::PacketPool pool(512);
  LinkConfig wire;
  wire.delay_ns = 10'000;
  wire.loss = 0.02;
  ReliableConfig rcfg;
  rcfg.rto_min_ns = 100'000;
  ReliableChannel ch(pool, wire, rcfg);
  constexpr std::uint64_t kPackets = 4000;

  std::thread sender([&] {
    std::uint64_t id = 0;
    pkt::Packet* tx[32];
    const std::uint64_t deadline = rt::now_ns() + 20'000'000'000ull;
    while (id < kPackets && rt::now_ns() < deadline) {
      std::size_t n = 0;
      while (n < 32 && id < kPackets) {
        pkt::Packet* p = make_packet(pool, id);
        if (p == nullptr) break;
        tx[n++] = p;
        ++id;
      }
      const std::size_t accepted = ch.send_burst({tx, n});
      for (std::size_t i = accepted; i < n; ++i) pool.free_raw(tx[i]);
      id -= n - accepted;
      if (accepted == 0) std::this_thread::yield();
    }
  });

  std::vector<std::uint64_t> got;
  got.reserve(kPackets);
  pkt::Packet* rx[64];
  const std::uint64_t deadline = rt::now_ns() + 20'000'000'000ull;
  while (got.size() < kPackets && rt::now_ns() < deadline) {
    const std::size_t n = ch.poll_burst(rx, 64);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      got.push_back(rx[i]->anno().packet_id);
      pool.free_raw(rx[i]);
    }
  }
  sender.join();
  ASSERT_EQ(got.size(), kPackets);
  for (std::uint64_t i = 0; i < kPackets; ++i) ASSERT_EQ(got[i], i);
}

TEST(ReliableChannel, WindowHotLayoutIsCacheLinePadded) {
  using Hot = ReliableChannel::WindowHot;
  static_assert(offsetof(Hot, snd_nxt) == 0);
  static_assert(offsetof(Hot, srtt_ns) == rt::kCacheLineSize);
  static_assert(offsetof(Hot, rcv_nxt) == 2 * rt::kCacheLineSize);
  static_assert(sizeof(Hot) == 3 * rt::kCacheLineSize);
  SUCCEED();
}

}  // namespace
}  // namespace sfc::net

namespace sfc::ftc {
namespace {

ChainRuntime::Spec reliable_chain(std::uint32_t n_mboxes,
                                  net::LinkConfig wire) {
  ChainRuntime::Spec spec;
  spec.mode = ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.link = wire;
  spec.cfg.transport = TransportMode::kReliable;
  spec.cfg.reliable.rto_min_ns = 100'000;
  for (std::uint32_t i = 0; i < n_mboxes; ++i) {
    spec.mbox_factories.push_back([]() -> std::unique_ptr<mbox::Middlebox> {
      return std::make_unique<mbox::Monitor>(1);
    });
  }
  return spec;
}

TEST(ReliableChain, FtcOverLossyReliableSegmentsLosesNothing) {
  // End-to-end composition: FTC piggyback replication rides reliable
  // segments over a lossy wire. Every generated packet must reach the
  // sink — the transport hides wire loss from the chain entirely.
  net::LinkConfig wire;
  wire.delay_ns = 20'000;
  wire.loss = 0.02;
  ChainRuntime chain(reliable_chain(2, wire));
  chain.start();

  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 20'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  source.stop();

  const auto q = test::wait_until([&] { return chain.quiescent(); },
                                  std::chrono::seconds(15));
  EXPECT_TRUE(q) << q.to_string();
  // Let the sink drain the egress queue.
  const std::uint64_t sent = source.packets_sent();
  test::wait_until([&] { return sink.packets_received() >= sent; },
                   std::chrono::seconds(5));
  sink.stop();

  ASSERT_GT(sent, 500u);
  EXPECT_EQ(sink.packets_received(), sent);
  // The wire really was lossy; the channels really did repair it.
  std::uint64_t wire_drops = 0;
  for (const auto& sample : chain.registry().snapshot()) {
    if (sample.name == "link.dropped_loss") {
      wire_drops += static_cast<std::uint64_t>(sample.value);
    }
  }
  EXPECT_GT(wire_drops, 0u);
  // Segment channels report a live RTO estimate to the nodes.
  EXPECT_GT(chain.segment(0).rto_ns(), 0u);
  chain.stop();
}

TEST(ReliableChain, SetRingPredClearsNackThrottle) {
  // Regression: last_nack_ns_ entries survived rerouting, so the
  // nack_min_gap gate could swallow the first NACK aimed at a freshly
  // wired replacement. Drive a lossy raw chain until a node has NACKed
  // (throttle state exists), then reroute its predecessor and verify the
  // throttle state is gone.
  ChainRuntime::Spec spec;
  spec.mode = ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.link.loss = 0.03;
  spec.cfg.link.delay_ns = 1000;
  spec.cfg.retransmit_timeout_ns = 1'000'000;
  spec.cfg.nack_min_gap_ns = 500'000;
  for (int i = 0; i < 3; ++i) {
    spec.mbox_factories.push_back([]() -> std::unique_ptr<mbox::Middlebox> {
      return std::make_unique<mbox::Monitor>(1);
    });
  }
  ChainRuntime chain(spec);
  chain.start();

  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 50'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();

  FtcNode* nacked = test::wait_until(
      [&]() -> FtcNode* {
        for (std::uint32_t pos = 0; pos < chain.ring_size(); ++pos) {
          FtcNode* node = chain.ftc_node(pos);
          if (node != nullptr && node->nack_throttle_entries() != 0) {
            return node;
          }
        }
        return nullptr;
      },
      std::chrono::seconds(15), std::chrono::milliseconds(5));
  source.stop();
  ASSERT_NE(nacked, nullptr) << "lossy run produced no NACK throttle state";

  // Reroute: same-pred updates must keep the state...
  const std::size_t before = nacked->nack_throttle_entries();
  ASSERT_GT(before, 0u);
  // (set_ring_pred with an unchanged id is a no-op; simulate an actual
  // predecessor change as wire_replacement does.)
  nacked->set_ring_pred(9999);
  EXPECT_EQ(nacked->nack_throttle_entries(), 0u)
      << "reroute must clear per-store NACK throttle state";

  sink.stop();
  chain.stop();
}

}  // namespace
}  // namespace sfc::ftc
