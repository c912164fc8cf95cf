// Tests for dependency vectors and the piggyback wire format.
#include <gtest/gtest.h>

#include "core/dep_vector.hpp"
#include "core/piggyback.hpp"
#include "packet/packet_io.hpp"
#include "wire_oracle.hpp"

namespace sfc::ftc {
namespace {

DepVector make_dep(std::initializer_list<std::pair<std::size_t, std::uint64_t>>
                       entries) {
  DepVector d;
  for (const auto& [p, s] : entries) {
    d.mask |= 1ULL << p;
    d.seq[p] = s;
  }
  return d;
}

TEST(DepVector, TouchesAndEquality) {
  const auto d = make_dep({{0, 1}, {3, 7}});
  EXPECT_TRUE(d.touches(0));
  EXPECT_TRUE(d.touches(3));
  EXPECT_FALSE(d.touches(1));
  auto e = d;
  e.seq[1] = 99;  // Untouched partition: ignored by equality.
  EXPECT_EQ(d, e);
  e.seq[3] = 8;
  EXPECT_NE(d, e);
}

TEST(MaxVector, AdvanceOnlyTouched) {
  MaxVector max;
  max.advance(make_dep({{1, 5}, {2, 3}}));
  EXPECT_EQ(max.seq[1], 5u);
  EXPECT_EQ(max.seq[2], 3u);
  EXPECT_EQ(max.seq[0], 0u);
}

TEST(MaxVector, CoversSemantics) {
  MaxVector max;
  max.seq[1] = 5;
  max.seq[2] = 3;
  EXPECT_TRUE(max.covers(make_dep({{1, 5}})));
  EXPECT_TRUE(max.covers(make_dep({{1, 4}, {2, 3}})));
  EXPECT_FALSE(max.covers(make_dep({{1, 6}})));
  EXPECT_FALSE(max.covers(make_dep({{1, 5}, {3, 1}})));
  EXPECT_TRUE(max.covers(DepVector{}));  // Empty log is always covered.
}

TEST(MaxVector, MergeIsComponentwiseMax) {
  MaxVector a, b;
  a.seq[0] = 5;
  a.seq[1] = 2;
  b.seq[0] = 3;
  b.seq[1] = 7;
  a.merge(b);
  EXPECT_EQ(a.seq[0], 5u);
  EXPECT_EQ(a.seq[1], 7u);
}

TEST(Classify, PaperFigure3Scenario) {
  // The head performs W(1) then R(1),W(3); the replica receives the second
  // log first and must hold it (paper Fig. 3).
  MaxVector max;
  max.seq[0] = 0;  // Partition "1" in the figure, 0-indexed here.
  max.seq[2] = 4;  // Partition "3" — pre-populated like the figure's 4.

  const auto first = make_dep({{0, 1}});           // W(1) -> [1, x, x].
  const auto second = make_dep({{0, 2}, {2, 5}});  // R(1),W(3) -> [2, x, 5].

  EXPECT_EQ(classify(max, second), LogFit::kFuture);   // Held.
  EXPECT_EQ(classify(max, first), LogFit::kApplicable);
  max.advance(first);
  EXPECT_EQ(classify(max, second), LogFit::kApplicable);
  max.advance(second);
  EXPECT_EQ(classify(max, first), LogFit::kDuplicate);
  EXPECT_EQ(classify(max, second), LogFit::kDuplicate);
}

TEST(Classify, DisjointPartitionsOrderIndependent) {
  MaxVector max;
  const auto a = make_dep({{0, 1}});
  const auto b = make_dep({{1, 1}});
  EXPECT_EQ(classify(max, a), LogFit::kApplicable);
  EXPECT_EQ(classify(max, b), LogFit::kApplicable);
  max.advance(b);  // Apply in the "other" order.
  EXPECT_EQ(classify(max, a), LogFit::kApplicable);
}

PiggybackMessage sample_message() {
  PiggybackMessage msg;
  PiggybackLog log1;
  log1.mbox = 2;
  log1.dep = make_dep({{0, 4}, {5, 9}});
  log1.writes.push_back({0x1111, state::Bytes::of<std::uint64_t>(42), false});
  log1.writes.push_back({0x2222, state::Bytes{}, true});
  msg.logs.push_back(log1);

  PiggybackLog log2;
  log2.mbox = 0;
  log2.dep = make_dep({{3, 1}});
  std::vector<std::uint8_t> big(200, 0xcd);
  log2.writes.push_back({0x3333, state::Bytes(big.data(), big.size()), false});
  msg.logs.push_back(log2);

  CommitVector c;
  c.mbox = 1;
  c.max.seq[0] = 17;
  c.max.seq[7] = 3;
  msg.commits.push_back(c);
  return msg;
}

TEST(PiggybackWire, AppendExtractRoundTrip) {
  pkt::Packet p;
  pkt::PacketBuilder(p).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 256);
  const std::size_t wire = p.size();

  const auto msg = sample_message();
  ASSERT_TRUE(append_message(p, msg, 16));
  EXPECT_GT(p.size(), wire);
  EXPECT_TRUE(has_message(p));

  auto extracted = extract_message(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(p.size(), wire);  // In-place strip restores the wire bytes.
  EXPECT_EQ(extracted->logs, msg.logs);
  ASSERT_EQ(extracted->commits.size(), 1u);
  EXPECT_EQ(extracted->commits[0].mbox, 1u);
  // Commit vectors serialize only num_partitions entries.
  EXPECT_EQ(extracted->commits[0].max.seq[0], 17u);
  EXPECT_EQ(extracted->commits[0].max.seq[7], 3u);
}

TEST(PiggybackWire, EmptyMessageRoundTrip) {
  pkt::Packet p;
  pkt::PacketBuilder(p).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 128);
  ASSERT_TRUE(append_message(p, PiggybackMessage{}, 16));
  auto extracted = extract_message(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_TRUE(extracted->empty());
}

TEST(PiggybackWire, NoMessageDetected) {
  pkt::Packet p;
  pkt::PacketBuilder(p).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 128);
  EXPECT_FALSE(has_message(p));
  EXPECT_FALSE(extract_message(p).has_value());
  EXPECT_EQ(p.size(), 128u);
}

TEST(PiggybackWire, RejectsWhenTailroomExhausted) {
  pkt::Packet p;
  p.push_back(pkt::Packet::kCapacity - p.headroom() - 50);
  const auto msg = sample_message();
  const std::size_t before = p.size();
  EXPECT_FALSE(append_message(p, msg, 16));
  EXPECT_EQ(p.size(), before);  // Untouched on failure.
}

TEST(PiggybackWire, SerializedSizeMatchesAppend) {
  pkt::Packet p;
  pkt::PacketBuilder(p).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 128);
  const auto msg = sample_message();
  const std::size_t predicted = serialized_size(msg, 16);
  const std::size_t before = p.size();
  ASSERT_TRUE(append_message(p, msg, 16));
  EXPECT_EQ(p.size() - before, predicted);
}

TEST(PiggybackMessage, SetCommitOverwrites) {
  PiggybackMessage msg;
  MaxVector a, b;
  a.seq[0] = 1;
  b.seq[0] = 9;
  msg.set_commit(4, a);
  msg.set_commit(4, b);
  ASSERT_EQ(msg.commits.size(), 1u);
  EXPECT_EQ(msg.find_commit(4)->seq[0], 9u);
  EXPECT_EQ(msg.find_commit(5), nullptr);
}

TEST(PiggybackMessage, StripLogsAndCommits) {
  auto msg = sample_message();
  msg.strip_logs_of(2);
  ASSERT_EQ(msg.logs.size(), 1u);
  EXPECT_EQ(msg.logs[0].mbox, 0u);
  msg.strip_commit_of(1);
  EXPECT_TRUE(msg.commits.empty());
}

TEST(PiggybackMessage, MergeConcatenatesLogsAndMergesCommits) {
  auto a = sample_message();
  PiggybackMessage b;
  PiggybackLog log;
  log.mbox = 9;
  log.dep = make_dep({{0, 1}});
  b.logs.push_back(log);
  CommitVector c;
  c.mbox = 1;
  c.max.seq[0] = 40;  // Higher than a's 17.
  c.max.seq[7] = 1;   // Lower than a's 3.
  b.commits.push_back(c);

  a.merge(std::move(b));
  EXPECT_EQ(a.logs.size(), 3u);
  EXPECT_EQ(a.logs.back().mbox, 9u);
  ASSERT_EQ(a.commits.size(), 1u);
  EXPECT_EQ(a.commits[0].max.seq[0], 40u);
  EXPECT_EQ(a.commits[0].max.seq[7], 3u);
}

// Out-of-band bodies (NACK replies, fetched histories) are wire records
// back to back: open_wire_records walks them with PiggybackView's bounds
// checks and hands back cursors into the body.
TEST(PiggybackWire, OutOfBandLogsRoundTrip) {
  const auto msg = sample_message();
  std::vector<std::uint8_t> blob;
  for (const auto& log : msg.logs) {
    const auto rec = wire_record(log);
    blob.insert(blob.end(), rec.begin(), rec.end());
  }
  std::vector<WireLog> out;
  ASSERT_TRUE(open_wire_records(blob, out));
  ASSERT_EQ(out.size(), msg.logs.size());
  std::size_t off = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].record, blob.data() + off);  // Zero-copy cursors.
    EXPECT_EQ(materialize_log(out[i]), msg.logs[i]);
    off += out[i].wire_size;
  }
  EXPECT_EQ(off, blob.size());
}

TEST(PiggybackWire, DeserializeLogsRejectsTruncation) {
  const auto msg = sample_message();
  std::vector<std::uint8_t> blob;
  for (const auto& log : msg.logs) {
    const auto rec = wire_record(log);
    blob.insert(blob.end(), rec.begin(), rec.end());
  }
  // Every cut inside a record is rejected; cuts on a record boundary are
  // a shorter valid body.
  const std::size_t first = wire_record(msg.logs[0]).size();
  for (std::size_t cut = 1; cut < blob.size(); ++cut) {
    std::vector<WireLog> out;
    EXPECT_EQ(open_wire_records({blob.data(), cut}, out), cut == first)
        << "cut at " << cut;
  }
}

// Sweep: messages of growing size must round-trip as long as they fit.
class PiggybackSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PiggybackSizeSweep, RoundTripWithStateSize) {
  pkt::Packet p;
  pkt::PacketBuilder(p).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 512);
  PiggybackMessage msg;
  PiggybackLog log;
  log.mbox = 1;
  log.dep = make_dep({{0, 1}});
  std::vector<std::uint8_t> value(GetParam(), 0x5a);
  log.writes.push_back({7, state::Bytes(value.data(), value.size()), false});
  msg.logs.push_back(log);

  ASSERT_TRUE(append_message(p, msg, 16));
  auto extracted = extract_message(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->logs, msg.logs);
}

INSTANTIATE_TEST_SUITE_P(StateSizes, PiggybackSizeSweep,
                         ::testing::Values(16, 32, 64, 128, 256, 1024));

}  // namespace
}  // namespace sfc::ftc
