// Unit tests for the egress buffer and forwarder (paper §5): hold/release
// semantics, commit absorption, feedback, propagating packets.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/buffer.hpp"
#include "core/forwarder.hpp"
#include "packet/packet_io.hpp"
#include "runtime/worker.hpp"
#include "wait_until.hpp"
#include "wire_oracle.hpp"

namespace sfc::ftc {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kParts = 16;

/// One feedback hand-off holding @p log's wire record, as the egress
/// buffer produces it.
FeedbackLogs feedback_of(const PiggybackLog& log) {
  pkt::Packet p;
  PiggybackView v = PiggybackView::create(p, kParts);
  EXPECT_TRUE(v.append_log(log));
  FeedbackLogs out;
  out.add_record(v.log_bytes(0));
  return out;
}

/// Opens a fresh packet carrying @p fb as its message.
PiggybackView attach(pkt::Packet& p, const FeedbackLogs& fb) {
  EXPECT_TRUE(append_wire_logs(p, fb.bytes, fb.count(), kParts));
  return PiggybackView::open(p);
}

struct Rig {
  pkt::PacketPool pool{64};
  net::Link egress{pool, net::LinkConfig{}};
  FeedbackChannel feedback;
  EgressBuffer buffer{pool, egress, feedback};

  pkt::Packet* data_packet(std::uint64_t id) {
    pkt::Packet* p = pool.alloc_raw();
    pkt::PacketBuilder(*p).udp(
        pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 128);
    p->anno().packet_id = id;
    p->anno().ingress_ns = 1;
    return p;
  }

  /// Serializes @p msg onto @p p's tail and submits it through the wire
  /// path, as the egress node does (outside a burst unless @p in_burst).
  void submit(pkt::Packet* p, const PiggybackMessage& msg,
              bool in_burst = false) {
    ASSERT_TRUE(append_message(*p, msg, kParts));
    PiggybackView v = PiggybackView::open(*p);
    ASSERT_TRUE(v.ok());
    buffer.submit_wire(p, v, in_burst);
  }

  /// A data packet carrying one log of @p mbox.
  void submit_holding(std::uint64_t id, MboxId mbox, std::size_t partition,
                      std::uint64_t seq, bool in_burst = false) {
    PiggybackMessage msg;
    msg.logs.push_back(log_for(mbox, partition, seq));
    submit(data_packet(id), msg, in_burst);
  }

  /// Ids of the packets on the egress link, in order (freed).
  std::vector<std::uint64_t> released() {
    std::vector<std::uint64_t> ids;
    while (pkt::Packet* p = egress.poll()) {
      ids.push_back(p->anno().packet_id);
      pool.free_raw(p);
    }
    return ids;
  }

  void commit(MboxId mbox, std::size_t partition, std::uint64_t seq) {
    MaxVector max;
    max.seq[partition] = seq;
    CommitVector cv{mbox, max};
    buffer.absorb({&cv, 1});
  }

  PiggybackLog log_for(MboxId mbox, std::size_t partition, std::uint64_t seq) {
    PiggybackLog log;
    log.mbox = mbox;
    log.dep.mask = 1ULL << partition;
    log.dep.seq[partition] = seq;
    return log;
  }
};

TEST(EgressBuffer, EmptyMessageReleasesImmediately) {
  Rig rig;
  rig.submit(rig.data_packet(1), PiggybackMessage{});
  EXPECT_EQ(rig.buffer.held_count(), 0u);
  pkt::Packet* out = rig.egress.poll();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->anno().packet_id, 1u);
  rig.pool.free_raw(out);
  EXPECT_EQ(rig.buffer.stats().released_immediately, 1u);
}

TEST(EgressBuffer, HoldsUntilCommitCovers) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(rig.log_for(2, 0, 5));
  rig.submit(rig.data_packet(1), msg);
  EXPECT_EQ(rig.buffer.held_count(), 1u);
  EXPECT_EQ(rig.egress.poll(), nullptr);

  // A later packet carries the commit for mbox 2 covering seq 5.
  PiggybackMessage commit_msg;
  MaxVector commit;
  commit.seq[0] = 5;
  commit_msg.set_commit(2, commit);
  rig.submit(rig.data_packet(2), commit_msg);

  // Both packets released (the second had no pending logs).
  EXPECT_EQ(rig.buffer.held_count(), 0u);
  int released = 0;
  while (pkt::Packet* p = rig.egress.poll()) {
    ++released;
    rig.pool.free_raw(p);
  }
  EXPECT_EQ(released, 2);
}

TEST(EgressBuffer, InsufficientCommitKeepsHolding) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(rig.log_for(2, 0, 5));
  rig.submit(rig.data_packet(1), msg);

  PiggybackMessage commit_msg;
  MaxVector commit;
  commit.seq[0] = 4;  // One short.
  commit_msg.set_commit(2, commit);
  rig.submit(rig.data_packet(2), commit_msg);
  EXPECT_EQ(rig.buffer.held_count(), 1u);
}

TEST(EgressBuffer, ControlPacketsDeliverCommitsAndDie) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(rig.log_for(1, 3, 2));
  rig.submit(rig.data_packet(1), msg);
  EXPECT_EQ(rig.buffer.held_count(), 1u);

  pkt::Packet* prop = Forwarder::make_propagating_packet(rig.pool);
  PiggybackMessage commit_msg;
  MaxVector commit;
  commit.seq[3] = 2;
  commit_msg.set_commit(1, commit);
  rig.submit(prop, commit_msg);

  EXPECT_EQ(rig.buffer.held_count(), 0u);
  // Only the data packet leaves the chain; the propagating packet is
  // consumed.
  pkt::Packet* out = rig.egress.poll();
  ASSERT_NE(out, nullptr);
  EXPECT_FALSE(out->anno().is_control);
  rig.pool.free_raw(out);
  EXPECT_EQ(rig.egress.poll(), nullptr);
  EXPECT_EQ(rig.buffer.stats().control_consumed, 1u);
}

TEST(EgressBuffer, FeedsLogsBackWithoutCommits) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(rig.log_for(2, 0, 1));
  MaxVector commit;
  commit.seq[1] = 9;
  msg.set_commit(0, commit);
  rig.submit(rig.data_packet(1), msg);

  auto fed_back = rig.feedback.pop();
  ASSERT_TRUE(fed_back.has_value());
  pkt::Packet p;
  const PiggybackView v = attach(p, *fed_back);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.log_count(), 1u);     // Wrap logs keep traveling.
  EXPECT_EQ(v.commit_count(), 0u);  // Commits end at the buffer.
  EXPECT_EQ(materialize_log(v.log(0)), rig.log_for(2, 0, 1));
}

TEST(EgressBuffer, AbsorbWithoutSubmit) {
  Rig rig;
  PiggybackMessage msg;
  msg.logs.push_back(rig.log_for(2, 0, 1));
  rig.submit(rig.data_packet(1), msg);
  EXPECT_EQ(rig.buffer.held_count(), 1u);

  MaxVector commit;
  commit.seq[0] = 1;
  CommitVector cv{2, commit};
  rig.buffer.absorb({&cv, 1});
  rig.buffer.release_eligible();
  EXPECT_EQ(rig.buffer.held_count(), 0u);
}

TEST(EgressBuffer, RingReleasesInOrderAndSkipsTombstones) {
  Rig rig;
  // Four held packets, each waiting on its own partition of mbox 2.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    rig.submit_holding(id, 2, id, 1);
  }
  EXPECT_EQ(rig.buffer.held_count(), 4u);

  // The third one's commit arrives first: a full scan releases it from the
  // middle of the ring and leaves a tombstone in its place.
  rig.commit(2, 3, 1);
  rig.buffer.release_eligible();
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(rig.buffer.held_count(), 3u);

  // Then the first two: the prefix release after the next submit (which
  // itself holds nothing and leaves first) passes the tombstone and stops
  // at the fourth, still uncovered.
  rig.commit(2, 1, 1);
  rig.commit(2, 2, 1);
  rig.submit(rig.data_packet(5), PiggybackMessage{});
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{5, 1, 2}));
  EXPECT_EQ(rig.buffer.held_count(), 1u);

  rig.commit(2, 4, 1);
  rig.submit(rig.data_packet(6), PiggybackMessage{});
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{6, 4}));
  EXPECT_EQ(rig.buffer.held_count(), 0u);

  // The ring is reused past its first wrap and grows: more holds than its
  // initial size, released in arrival order.
  for (std::uint64_t id = 10; id < 60; ++id) {
    rig.submit_holding(id, 3, 0, id);
  }
  rig.commit(3, 0, 200);
  rig.buffer.release_eligible();
  const auto ids = rig.released();
  ASSERT_EQ(ids.size(), 50u);
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], 10 + i);
}

TEST(EgressBuffer, BurstShipsNothingBeforeEndBurst) {
  Rig rig;
  // A burst: one packet released at once, one held (its log feeds back),
  // then the commit that covers it on a third.
  rig.submit(rig.data_packet(1), PiggybackMessage{}, /*in_burst=*/true);
  rig.submit_holding(2, 2, 0, 1, /*in_burst=*/true);
  PiggybackMessage covering;
  MaxVector max;
  max.seq[0] = 1;
  covering.set_commit(2, max);
  covering.logs.push_back(rig.log_for(2, 1, 7));
  rig.submit(rig.data_packet(3), covering, /*in_burst=*/true);

  EXPECT_EQ(rig.egress.poll(), nullptr);
  EXPECT_EQ(rig.feedback.pending_approx(), 0u);
  EXPECT_EQ(rig.buffer.staged_count(), 2u + 2u);  // Releases + records.

  rig.buffer.end_burst();
  EXPECT_EQ(rig.buffer.staged_count(), 0u);
  // Releases leave in order, with one bulk send.
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(rig.buffer.held_count(), 1u);  // Packet 3 waits on its own log.
  // Both feedback records travel as one hand-off.
  EXPECT_EQ(rig.feedback.pending_approx(), 1u);
  auto fed_back = rig.feedback.pop();
  ASSERT_TRUE(fed_back.has_value());
  ASSERT_EQ(fed_back->count(), 2u);
  pkt::Packet p;
  const PiggybackView v = attach(p, *fed_back);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(materialize_log(v.log(0)), rig.log_for(2, 0, 1));
  EXPECT_EQ(materialize_log(v.log(1)), rig.log_for(2, 1, 7));
}

TEST(EgressBuffer, OutOfBurstSubmitShipsAtOnce) {
  Rig rig;
  rig.submit_holding(1, 2, 0, 1, /*in_burst=*/true);
  rig.submit(rig.data_packet(2), PiggybackMessage{}, /*in_burst=*/true);
  EXPECT_EQ(rig.egress.poll(), nullptr);

  // A submit outside any burst (a propagating packet, the control thread's
  // drain) ships its own work and whatever a burst staged before it.
  PiggybackMessage commit_msg;
  MaxVector max;
  max.seq[0] = 1;
  commit_msg.set_commit(2, max);
  rig.submit(Forwarder::make_propagating_packet(rig.pool), commit_msg);
  EXPECT_EQ(rig.buffer.staged_count(), 0u);
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(rig.feedback.pending_approx(), 1u);
  EXPECT_EQ(rig.buffer.held_count(), 0u);
}

TEST(EgressBuffer, HandOffsReuseRecycledStorage) {
  Rig rig;
  rig.submit_holding(1, 2, 0, 1);
  auto first = rig.feedback.pop();
  ASSERT_TRUE(first.has_value());
  const std::uint8_t* storage = first->bytes.data();
  // The head attached the records and hands the storage back; the next
  // hand-off carries its records in the same bytes.
  rig.feedback.recycle(std::move(*first));
  rig.submit_holding(2, 2, 0, 2);
  rig.submit_holding(3, 2, 0, 3);
  auto second = rig.feedback.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->bytes.data(), storage);
}

TEST(Forwarder, CollectMergesPendingMessages) {
  ChainConfig cfg;
  FeedbackChannel feedback;
  Forwarder fwd(feedback, cfg);

  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    PiggybackLog log;
    log.mbox = 7;
    log.dep.mask = 1;
    log.dep.seq[0] = seq;
    feedback.push(feedback_of(log));
  }
  const FeedbackLogs merged = fwd.collect();
  pkt::Packet p;
  const PiggybackView v = attach(p, merged);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.log_count(), 3u);
  EXPECT_EQ(v.log(0).dep.seq[0], 1u);  // Order preserved.
  EXPECT_EQ(v.log(2).dep.seq[0], 3u);
}

TEST(Forwarder, MergeLimitBoundsPerPacketWork) {
  ChainConfig cfg;
  cfg.forwarder_merge_limit = 2;
  FeedbackChannel feedback;
  Forwarder fwd(feedback, cfg);
  for (int i = 0; i < 5; ++i) feedback.push(feedback_of(PiggybackLog{}));
  (void)fwd.collect();
  EXPECT_EQ(feedback.pending_approx(), 3u);
}

// Merged feedback must fit the packet that carries it when no data packet
// can: a fresh propagating packet. Hand-offs of ~1 KB records (one to three
// per hand-off, as wide wrap-around logs produce) would overflow it if the
// merge limit alone bounded a collect.
TEST(Forwarder, MergedFeedbackFitsAPropagatingPacket) {
  ChainConfig cfg;
  FeedbackChannel feedback;
  Forwarder fwd(feedback, cfg);
  pkt::PacketPool pool(4);

  std::uint64_t pushed = 0;
  for (int run = 0; run < 12; ++run) {
    FeedbackLogs fb;
    for (int r = 0; r <= run % 3; ++r) {
      PiggybackLog log;
      log.mbox = 3;
      log.dep.mask = 1;
      log.dep.seq[0] = ++pushed;
      std::vector<std::uint8_t> value(1000, static_cast<std::uint8_t>(run));
      log.writes.push_back({pushed, state::Bytes(value.data(), value.size()), false});
      const FeedbackLogs one = feedback_of(log);
      fb.add_record({one.bytes.data(), one.bytes.size()});
    }
    feedback.push(std::move(fb));
  }

  std::uint64_t next_seq = 1;
  while (feedback.pending_approx() != 0) {
    const FeedbackLogs merged = fwd.collect();
    ASSERT_FALSE(merged.empty());
    pkt::Packet* prop = Forwarder::make_propagating_packet(pool);
    ASSERT_NE(prop, nullptr);
    ASSERT_TRUE(append_wire_logs(*prop, merged.bytes, merged.count(), kParts))
        << merged.bytes.size() << " record bytes > tailroom " << prop->tailroom();
    const PiggybackView v = PiggybackView::open(*prop);
    ASSERT_TRUE(v.ok());
    // Whole records, none lost, none reordered.
    for (std::size_t i = 0; i < v.log_count(); ++i) {
      EXPECT_EQ(v.log(i).dep.seq[0], next_seq++);
    }
    pool.free_raw(prop);
  }
  EXPECT_EQ(next_seq, pushed + 1);
}

TEST(Forwarder, PropagationDueOnlyWhenIdleAndPending) {
  ChainConfig cfg;
  cfg.propagate_interval_ns = 1'000'000;  // 1 ms.
  FeedbackChannel feedback;
  Forwarder fwd(feedback, cfg);
  EXPECT_FALSE(fwd.propagation_due());  // Nothing pending.
  feedback.push(feedback_of(PiggybackLog{}));
  EXPECT_FALSE(fwd.propagation_due());  // Pending but not idle yet.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(fwd.propagation_due());
  fwd.note_activity();
  EXPECT_FALSE(fwd.propagation_due());
}

TEST(Forwarder, PropagatingPacketIsControlAndParseable) {
  pkt::PacketPool pool(4);
  pkt::Packet* p = Forwarder::make_propagating_packet(pool);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->anno().is_control);
  EXPECT_TRUE(pkt::parse_packet(*p).has_value());
  pool.free_raw(p);
}

TEST(FeedbackChannel, BlockedPushGivesUpWhenItsWorkerStops) {
  // The tail pushes feedback toward the head; once the head has stopped,
  // nothing drains the channel, and the tail's stop() must still return.
  FeedbackChannel channel(4);
  while (channel.pending_approx() < 4) channel.push(FeedbackLogs{});
  std::atomic<bool> blocked{false};
  rt::Worker tail("tail", [&] {
    blocked.store(true);
    channel.push(FeedbackLogs{});
    return true;
  });
  ASSERT_TRUE(test::wait_until([&] { return blocked.load(); }, 5s));
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    tail.stop();
    stopped.store(true);
  });
  const bool in_time = test::wait_until([&] { return stopped.load(); }, 1s);
  // A push blind to the stop flag waits for room: make some, so the test
  // fails instead of hanging.
  while (!stopped.load()) {
    (void)channel.pop();
    std::this_thread::yield();
  }
  stopper.join();
  EXPECT_TRUE(in_time) << "stop() waited on a push nobody drains";
}

}  // namespace
}  // namespace sfc::ftc
