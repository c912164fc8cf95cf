// Unit tests for the egress buffer and forwarder (paper §5): hold/release
// semantics, commit absorption, feedback, propagating packets.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <random>
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
  pkt::PacketPool pool{256};
  net::Link egress{pool, net::LinkConfig{}};
  FeedbackChannel feedback;
  EgressBuffer buffer{pool, egress, feedback};
  /// The burst a data worker would own.
  EgressBuffer::Batch batch;
  /// A one-packet batch, shipped by the submit that fills it.
  EgressBuffer::Batch one;

  pkt::Packet* data_packet(std::uint64_t id) {
    pkt::Packet* p = pool.alloc_raw();
    pkt::PacketBuilder(*p).udp(
        pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 128);
    p->anno().packet_id = id;
    p->anno().ingress_ns = 1;
    return p;
  }

  /// Serializes @p msg onto @p p's tail and submits it through the wire
  /// path, as the egress node does: into the rig's batch if @p in_burst,
  /// else as a batch of one, shipped at once.
  void submit(pkt::Packet* p, const PiggybackMessage& msg,
              bool in_burst = false) {
    ASSERT_TRUE(append_message(*p, msg, kParts));
    PiggybackView v = PiggybackView::open(*p);
    ASSERT_TRUE(v.ok());
    if (in_burst) {
      buffer.submit_wire(batch, p, v);
    } else {
      buffer.submit_wire(one, p, v);
      buffer.end_burst(one);
    }
  }

  void end_burst() { buffer.end_burst(batch); }

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

  /// The commit for @p mbox's @p partition up to @p seq, as a message.
  static PiggybackMessage commit_msg(MboxId mbox, std::size_t partition,
                                     std::uint64_t seq) {
    PiggybackMessage msg;
    MaxVector max;
    max.seq[partition] = seq;
    msg.set_commit(mbox, max);
    return msg;
  }

  /// Delivers a commit as the chain does once no data packet carries it:
  /// on a propagating packet, a batch of one.
  void commit(MboxId mbox, std::size_t partition, std::uint64_t seq) {
    submit(Forwarder::make_propagating_packet(pool),
           commit_msg(mbox, partition, seq));
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

TEST(EgressBuffer, RingReleasesInOrderAndSkipsTombstones) {
  Rig rig;
  // Four held packets, each waiting on its own partition of mbox 2.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    rig.submit_holding(id, 2, id, 1);
  }
  EXPECT_EQ(rig.buffer.held_count(), 4u);

  // The third one's commit arrives first: the prefix release stops at the
  // first, so a full scan releases it from the middle of the ring and
  // leaves a tombstone in its place.
  rig.commit(2, 3, 1);
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{}));
  rig.buffer.release_eligible();
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(rig.buffer.held_count(), 3u);

  // Then the first two: the prefix release passes the tombstone and stops
  // at the fourth, still uncovered. The next submit holds nothing and
  // leaves at once.
  rig.commit(2, 1, 1);
  rig.commit(2, 2, 1);
  rig.submit(rig.data_packet(5), PiggybackMessage{});
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{1, 2, 5}));
  EXPECT_EQ(rig.buffer.held_count(), 1u);

  rig.commit(2, 4, 1);
  rig.submit(rig.data_packet(6), PiggybackMessage{});
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{4, 6}));
  EXPECT_EQ(rig.buffer.held_count(), 0u);

  // The ring is reused past its first wrap and grows: more holds than its
  // initial size, released in arrival order.
  for (std::uint64_t id = 10; id < 60; ++id) {
    rig.submit_holding(id, 3, 0, id);
  }
  rig.commit(3, 0, 200);
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
  PiggybackMessage covering = Rig::commit_msg(2, 0, 1);
  covering.logs.push_back(rig.log_for(2, 1, 7));
  rig.submit(rig.data_packet(3), covering, /*in_burst=*/true);

  EXPECT_EQ(rig.egress.poll(), nullptr);
  EXPECT_EQ(rig.feedback.pending_approx(), 0u);
  EXPECT_EQ(rig.buffer.held_count(), 0u);  // Nothing held before end_burst.
  EXPECT_EQ(rig.buffer.staged_count(), 1u);
  EXPECT_EQ(rig.buffer.stats().submitted, 0u);

  rig.end_burst();
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

TEST(EgressBuffer, LaterCommitInBurstReleasesEarlierHeld) {
  Rig rig;
  // Packet 1 is held from an earlier burst.
  rig.submit_holding(1, 2, 0, 5, /*in_burst=*/true);
  rig.end_burst();
  EXPECT_EQ(rig.buffer.held_count(), 1u);
  // In the next burst packets 2 and 3 carry logs the commit on packet 4,
  // the burst's last, covers along with packet 1's.
  rig.submit_holding(2, 2, 0, 6, /*in_burst=*/true);
  rig.submit_holding(3, 2, 1, 3, /*in_burst=*/true);
  PiggybackMessage covering = Rig::commit_msg(2, 0, 6);
  MaxVector max = covering.commits[0].max;
  max.seq[1] = 3;
  covering.set_commit(2, max);
  rig.submit(rig.data_packet(4), covering, /*in_burst=*/true);
  rig.end_burst();
  // The older hold leaves first, then the burst in arrival order; none of
  // the burst's packets was ever held.
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(rig.buffer.held_count(), 0u);
  const BufferStats st = rig.buffer.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.released, 4u);
  EXPECT_EQ(st.released_immediately, 3u);
  EXPECT_EQ(st.high_water, 1u);
}

TEST(EgressBuffer, UncoveredPacketStaysHeldAcrossBursts) {
  Rig rig;
  rig.submit_holding(1, 2, 0, 5, /*in_burst=*/true);
  rig.end_burst();
  // Bursts whose commits fall one short, on data and control packets:
  // packets behind the hold may leave, the hold may not.
  for (std::uint64_t id = 2; id < 10; ++id) {
    rig.submit(rig.data_packet(id), Rig::commit_msg(2, 0, 4),
               /*in_burst=*/true);
    pkt::Packet* prop = Forwarder::make_propagating_packet(rig.pool);
    rig.submit(prop, Rig::commit_msg(2, 1, id), /*in_burst=*/true);
    rig.end_burst();
    EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{id}));
    EXPECT_EQ(rig.buffer.held_count(), 1u) << "burst " << id;
  }
  rig.buffer.release_eligible();
  EXPECT_EQ(rig.buffer.held_count(), 1u);
  rig.commit(2, 0, 5);
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(rig.buffer.held_count(), 0u);
}

TEST(EgressBuffer, OnePacketBatchesShipAtEndBurst) {
  Rig rig;
  // A one-packet batch (a pass that emits a single packet) is held or
  // released, and its records handed to the forwarder, once end_burst()
  // ships it.
  rig.submit_holding(1, 2, 0, 1);
  EXPECT_EQ(rig.buffer.held_count(), 1u);
  EXPECT_EQ(rig.feedback.pending_approx(), 1u);
  rig.submit(rig.data_packet(2), PiggybackMessage{});
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{2}));
  rig.commit(2, 0, 1);
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(rig.buffer.staged_count(), 0u);
  EXPECT_EQ(rig.buffer.held_count(), 0u);
  const BufferStats st = rig.buffer.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.released, 2u);
  EXPECT_EQ(st.released_immediately, 1u);
  EXPECT_EQ(st.control_consumed, 1u);
  // A batch left open is not shipped by another batch's end_burst().
  rig.submit(rig.data_packet(3), PiggybackMessage{}, /*in_burst=*/true);
  rig.submit(rig.data_packet(4), PiggybackMessage{});
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{4}));
  rig.end_burst();
  EXPECT_EQ(rig.released(), (std::vector<std::uint64_t>{3}));
}

// Seeded bursts of packets, each holding one log of one partition, with
// commits advancing on some of them. A per-packet model predicts each
// burst's releases, in order, and the counters: learn the burst's commits,
// release the covered prefix of the holds, then take each packet in
// arrival order (leave if covered, else hold). release_eligible() then
// frees the covered holds behind an uncovered one. No packet may leave
// before a commit covers its log.
TEST(EgressBuffer, CountersMatchPerPacketCounting) {
  Rig rig;
  std::mt19937_64 rng(0xb0f);
  struct Model {
    std::uint64_t id;
    std::size_t part;
    std::uint64_t seq;
  };
  std::array<std::uint64_t, 4> head_seq{};  // Per partition: last issued.
  std::array<std::uint64_t, 4> committed{};
  std::deque<Model> held;
  std::uint64_t next_id = 1;
  std::uint64_t submitted = 0, released = 0, immediate = 0, high_water = 0;
  const auto covered = [&](const Model& m) {
    return committed[m.part] >= m.seq;
  };
  for (int burst = 0; burst < 200; ++burst) {
    const std::size_t n = 1 + rng() % 8;
    std::vector<Model> arrivals;
    for (std::size_t i = 0; i < n; ++i) {
      Model m{next_id++, rng() % 4, 0};
      m.seq = ++head_seq[m.part];
      PiggybackMessage msg;
      msg.logs.push_back(rig.log_for(2, m.part, m.seq));
      if (rng() % 3 == 0) {
        // A commit a little behind what the head issued.
        MaxVector max;
        for (std::size_t p = 0; p < 4; ++p) {
          max.seq[p] = head_seq[p] - std::min<std::uint64_t>(head_seq[p], rng() % 6);
          committed[p] = std::max(committed[p], max.seq[p]);
        }
        msg.set_commit(2, max);
      }
      rig.submit(rig.data_packet(m.id), msg, /*in_burst=*/true);
      arrivals.push_back(m);
    }
    rig.end_burst();

    std::vector<std::uint64_t> expect;
    while (!held.empty() && covered(held.front())) {
      expect.push_back(held.front().id);
      held.pop_front();
    }
    for (const Model& m : arrivals) {
      ++submitted;
      if (covered(m)) {
        expect.push_back(m.id);
        ++immediate;
      } else {
        held.push_back(m);
        high_water = std::max<std::uint64_t>(high_water, held.size());
      }
    }
    ASSERT_EQ(rig.released(), expect) << "burst " << burst;
    released += expect.size();

    expect.clear();
    std::deque<Model> still;
    for (const Model& m : held) {
      if (covered(m)) {
        expect.push_back(m.id);
      } else {
        still.push_back(m);
      }
    }
    held.swap(still);
    rig.buffer.release_eligible();
    ASSERT_EQ(rig.released(), expect) << "burst " << burst;
    released += expect.size();
    ASSERT_EQ(rig.buffer.held_count(), held.size()) << "burst " << burst;
  }
  const BufferStats st = rig.buffer.stats();
  EXPECT_EQ(st.submitted, submitted);
  EXPECT_EQ(st.released, released);
  EXPECT_EQ(st.released_immediately, immediate);
  EXPECT_EQ(st.high_water, high_water);
  EXPECT_GT(immediate, 0u);
  EXPECT_GT(released, immediate);
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

TEST(Forwarder, PropagationDueWhenRecordsPending) {
  // Due means records are pending, however recent the last collect: the
  // ingress sends them on its first empty poll, with no idle interval.
  ChainConfig cfg;
  FeedbackChannel feedback;
  Forwarder fwd(feedback, cfg);
  EXPECT_FALSE(fwd.propagation_due());  // Nothing pending.
  feedback.push(feedback_of(PiggybackLog{}));
  EXPECT_TRUE(fwd.propagation_due());
  EXPECT_FALSE(fwd.left_behind());
  EXPECT_EQ(fwd.collect().count(), 1u);
  EXPECT_FALSE(fwd.propagation_due());
  // Right after a collect, a new record is due at once.
  feedback.push(feedback_of(PiggybackLog{}));
  EXPECT_TRUE(fwd.propagation_due());
  // A record no collect of this budget fits stays pending, first in line,
  // and leads the next burst.
  EXPECT_TRUE(fwd.collect(1).empty());
  EXPECT_TRUE(fwd.left_behind());
  EXPECT_TRUE(fwd.propagation_due());
  EXPECT_EQ(fwd.collect().count(), 1u);
  EXPECT_FALSE(fwd.left_behind());
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
