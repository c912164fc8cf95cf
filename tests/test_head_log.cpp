// The head's piggyback log (paper §4.2, §5.1): a committed transaction is
// encoded once, and the same bytes go into the head's log history and onto
// the packet. These tests drive a head node with scripted transactions and
// compare both copies against the oracle encoding of the log the
// transaction must produce, and against an independent decode.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "mbox/middlebox.hpp"
#include "net/control.hpp"
#include "net/link.hpp"
#include "packet/packet_io.hpp"
#include "packet/packet_pool.hpp"
#include "wait_until.hpp"
#include "wire_oracle.hpp"

namespace sfc::ftc {
namespace {

using namespace std::chrono_literals;
using test::wait_until;

/// Keys in five distinct partitions of a @p partitions-wide store.
std::vector<state::Key> distinct_partition_keys(std::size_t partitions) {
  state::StateStore probe(partitions);
  std::vector<state::Key> keys;
  std::uint64_t seen = 0;
  for (state::Key k = 1; keys.size() < 5; ++k) {
    const std::uint64_t bit = 1ULL << probe.partition_of(k);
    if ((seen & bit) != 0) continue;
    seen |= bit;
    keys.push_back(k);
  }
  return keys;
}

/// Runs the transaction named by the packet id, one per test case:
///   1  one write;
///   2  a key written twice around another (last value wins, first place);
///   3  an erase;
///   4  reads of two partitions it does not write, a write, a fetch_add;
///   5  a read only (no log);
///   6  one write after the read-only transaction.
class ScriptedMbox : public mbox::Middlebox {
 public:
  explicit ScriptedMbox(std::vector<state::Key> keys) : k_(std::move(keys)) {}

  std::string_view name() const noexcept override { return "scripted"; }

  mbox::Verdict process(state::Txn& txn, pkt::Packet& packet,
                        pkt::ParsedPacket&, mbox::ProcessContext&) override {
    const auto u64 = [](std::uint64_t v) { return state::Bytes::of(v); };
    switch (packet.anno().packet_id) {
      case 1:
        txn.write(k_[0], u64(11));
        break;
      case 2:
        txn.write(k_[0], u64(21));
        txn.write(k_[1], u64(22));
        txn.write(k_[0], u64(23));
        break;
      case 3:
        txn.erase(k_[1]);
        break;
      case 4:
        (void)txn.read(k_[2]);
        (void)txn.contains(k_[3]);
        txn.write(k_[0], u64(41));
        (void)txn.fetch_add(k_[4], 5);
        break;
      case 5:
        (void)txn.read(k_[0]);
        break;
      case 6:
        txn.write(k_[1], u64(61));
        break;
      default:
        break;
    }
    return mbox::Verdict::kForward;
  }

 private:
  std::vector<state::Key> k_;
};

/// The log each scripted transaction must produce, built without the
/// transaction machinery: touched partitions bump their own sequence
/// numbers, read-only transactions bump nothing.
class ExpectedLogs {
 public:
  ExpectedLogs(std::size_t partitions, std::vector<state::Key> keys)
      : probe_(partitions), k_(std::move(keys)) {}

  /// Nullopt for the read-only case.
  std::optional<PiggybackLog> next(std::uint64_t id) {
    const auto u64 = [](std::uint64_t v) { return state::Bytes::of(v); };
    std::vector<state::Key> touched;
    PiggybackLog log;
    log.mbox = 0;
    switch (id) {
      case 1:
        touched = {k_[0]};
        log.writes.push_back({k_[0], u64(11), false});
        break;
      case 2:
        touched = {k_[0], k_[1]};
        log.writes.push_back({k_[0], u64(23), false});
        log.writes.push_back({k_[1], u64(22), false});
        break;
      case 3:
        touched = {k_[1]};
        log.writes.push_back({k_[1], state::Bytes{}, true});
        break;
      case 4:
        touched = {k_[2], k_[3], k_[0], k_[4]};
        log.writes.push_back({k_[0], u64(41), false});
        log.writes.push_back({k_[4], u64(5), false});
        break;
      case 5:
        return std::nullopt;
      case 6:
        touched = {k_[1]};
        log.writes.push_back({k_[1], u64(61), false});
        break;
    }
    for (const state::Key k : touched) {
      log.dep.mask |= 1ULL << probe_.partition_of(k);
    }
    for (std::size_t p = 0; p < state::kMaxPartitions; ++p) {
      if (log.dep.touches(p)) log.dep.seq[p] = ++seq_[p];
    }
    return log;
  }

 private:
  state::StateStore probe_;
  std::vector<state::Key> k_;
  std::array<std::uint64_t, state::kMaxPartitions> seq_{};
};

/// A head node (ring position 0 of a two-position ring) wired to links
/// the test drives directly, so the packet it emits can be read before any
/// successor strips its log.
struct HeadRig {
  explicit HeadRig(std::size_t threads) {
    cfg.f = 1;
    cfg.threads_per_node = threads;
    keys = distinct_partition_keys(cfg.num_partitions);
    FtcNode::Params params;
    params.id = 1;
    params.position = 0;
    params.ring_size = 2;
    params.num_mboxes = 1;
    params.cfg = &cfg;
    params.pool = &pool;
    params.ctrl = &ctrl;
    params.mbox_factory = [k = keys]() -> std::unique_ptr<mbox::Middlebox> {
      return std::make_unique<ScriptedMbox>(k);
    };
    node = std::make_unique<FtcNode>(params);
    node->attach_data_path(&in, &out);
    node->start();
  }
  ~HeadRig() { node->stop(); }

  /// Sends a UDP packet with @p id through the head and returns it as it
  /// left (null when it did not arrive).
  pkt::Packet* roundtrip(std::uint64_t id) {
    pkt::Packet* p = pool.alloc_raw();
    if (p == nullptr) return nullptr;
    pkt::PacketBuilder(*p).udp(
        pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 128);
    p->anno().packet_id = id;
    if (!in.send(p)) {
      pool.free_raw(p);
      return nullptr;
    }
    return wait_until([&] { return out.poll(); }, 10s);
  }

  ChainConfig cfg;
  std::vector<state::Key> keys;
  pkt::PacketPool pool{64};
  net::ControlPlane ctrl;
  net::Link in{pool};
  net::Link out{pool};
  std::unique_ptr<FtcNode> node;
};

std::vector<std::uint8_t> to_vector(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

class HeadLogRecord : public ::testing::TestWithParam<std::size_t> {};

// Single-writer heads (one worker) commit on the lock-free fast path,
// multi-worker heads under wound-wait 2PL; both emit the same records.
TEST_P(HeadLogRecord, HistoryAndPacketHoldTheOracleEncoding) {
  HeadRig rig(GetParam());
  ExpectedLogs expected(rig.cfg.num_partitions, rig.keys);
  std::vector<std::uint8_t> expected_history;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    SCOPED_TRACE(::testing::Message() << "transaction " << id);
    pkt::Packet* p = rig.roundtrip(id);
    ASSERT_NE(p, nullptr);
    const auto want = expected.next(id);
    PiggybackView v = PiggybackView::open(*p);
    if (!want) {
      // A read-only transaction has no log: the packet carries none.
      EXPECT_TRUE(!v.ok() || v.log_count() == 0);
      rig.pool.free_raw(p);
      continue;
    }
    ASSERT_TRUE(v.ok());
    ASSERT_EQ(v.log_count(), 1u);
    const std::vector<std::uint8_t> record = wire_record(*want);
    EXPECT_EQ(to_vector(v.log_bytes(0)), record);
    // wire_record shares the head's encoder, so also read the packet's
    // message back with the independent materializing parser.
    const auto msg = extract_message(*p);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->logs.size(), 1u);
    EXPECT_EQ(msg->logs[0], *want);
    expected_history.insert(expected_history.end(), record.begin(),
                            record.end());
    rig.pool.free_raw(p);
  }
  std::vector<std::uint8_t> history;
  EXPECT_EQ(rig.node->head()->history().append_after(MaxVector{}, history), 5u);
  EXPECT_EQ(history, expected_history);
}

INSTANTIATE_TEST_SUITE_P(Threads, HeadLogRecord, ::testing::Values(1, 2),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sfc::ftc
