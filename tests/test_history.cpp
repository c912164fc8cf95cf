// Log-history pruning (paper §4.1/§5.1): the group tail's commit vector
// reaches every upstream group member over the control plane, so each
// history holds only the logs not yet f+1-replicated — including heads
// whose commits never wrap around the ring, and group members strictly
// between head and tail. A failover then fetches that in-flight window,
// not the capacity backstop.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/chain.hpp"
#include "mbox/monitor.hpp"
#include "obs/span.hpp"
#include "orch/orchestrator.hpp"
#include "tgen/traffic.hpp"
#include "wait_until.hpp"
#include "wire_oracle.hpp"

namespace sfc::ftc {
namespace {

using namespace std::chrono_literals;
using test::wait_until;

/// Far below the default history capacity (65,536): a history above it
/// did not prune.
constexpr std::size_t kWindow = 4096;

ChainRuntime::Spec monitor_chain(std::size_t len, std::uint32_t f) {
  ChainRuntime::Spec spec;
  spec.mode = ChainMode::kFtc;
  spec.cfg.f = f;
  spec.cfg.threads_per_node = 1;
  spec.cfg.pool_packets = 2048;
  for (std::size_t i = 0; i < len; ++i) {
    spec.mbox_factories.push_back([]() -> std::unique_ptr<mbox::Middlebox> {
      return std::make_unique<mbox::Monitor>(1);
    });
  }
  return spec;
}

std::uint64_t count_of(state::StateStore& store, FtcNode* head_node) {
  auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
  const auto v = store.get(monitor->counter_key(0));
  return v ? v->as<std::uint64_t>() : 0;
}

/// Drives @p packets through the chain at full speed, then waits until
/// nothing is in flight.
void run_traffic(ChainRuntime& chain, std::uint64_t packets) {
  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  const bool delivered =
      wait_until([&] { return sink.packets_received() >= packets; }, 60s);
  source.stop();
  const auto quiesced = wait_until([&] { return chain.quiescent(); }, 15s);
  sink.stop();
  ASSERT_TRUE(delivered) << "delivered " << sink.packets_received() << " of "
                         << packets;
  ASSERT_TRUE(quiesced) << "chain never quiesced: " << quiesced.to_string();
}

/// Largest history any live store of the chain holds.
std::size_t largest_history(ChainRuntime& chain) {
  std::size_t largest = 0;
  for (std::uint32_t pos = 0; pos < chain.ring_size(); ++pos) {
    FtcNode* node = chain.ftc_node(pos);
    if (node->head() != nullptr) {
      largest = std::max(largest, node->head()->history().size());
    }
    for (std::uint32_t m = 0; m < chain.num_mboxes(); ++m) {
      if (InOrderApplier* a = node->applier(m)) {
        largest = std::max(largest, a->history().size());
      }
    }
  }
  return largest;
}

std::vector<obs::Sample> samples_named(ChainRuntime& chain,
                                       const std::string& name) {
  std::vector<obs::Sample> out;
  for (auto& s : chain.registry().snapshot()) {
    if (s.name == name) out.push_back(std::move(s));
  }
  return out;
}

void expect_every_history_prunes(std::size_t len, std::uint32_t f) {
  ChainRuntime chain(monitor_chain(len, f));
  chain.start();
  run_traffic(chain, 50'000);
  // The last commit notices ride the control plane after the data path
  // went quiet.
  EXPECT_TRUE(wait_until([&] { return largest_history(chain) <= kWindow; }, 10s))
      << "a history kept " << largest_history(chain) << " logs";
  // One gauge and one eviction counter per store: a head and f appliers
  // per position.
  const auto logs = samples_named(chain, "state.history_logs");
  const auto evicted = samples_named(chain, "state.history_evicted");
  EXPECT_EQ(logs.size(), len * (f + 1));
  EXPECT_EQ(evicted.size(), len * (f + 1));
  for (const auto& s : logs) EXPECT_LE(s.value, static_cast<double>(kWindow));
  for (const auto& s : evicted) EXPECT_EQ(s.value, 0.0);
  chain.stop();
}

TEST(HistoryPruning, EveryHistoryOfAMonitorChainPrunes) {
  // Heads 0 and 1 never see their tail's commit on the data path (it does
  // not wrap), so without the commit notice they kept every log.
  expect_every_history_prunes(3, 1);
}

TEST(HistoryPruning, MiddleGroupMembersPruneAtF2) {
  // f=2: the member strictly between head and tail forwards the notice.
  expect_every_history_prunes(4, 2);
}

TEST(HistoryPruning, FailoverFetchesOnlyTheInFlightWindow) {
  ChainRuntime chain(monitor_chain(3, 1));
  chain.start();
  orch::Orchestrator orch(chain);
  run_traffic(chain, 50'000);

  chain.fail_position(1);
  const auto reports = orch.recover({1});
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports[0].success);

  // The replacement's stores came from head 0 (its applier) and from
  // node 2's applier (its head): both hold only unreplicated logs.
  FtcNode* fresh = chain.ftc_node(1);
  EXPECT_LE(fresh->head()->history().size(), kWindow);
  ASSERT_NE(fresh->applier(0), nullptr);
  EXPECT_LE(fresh->applier(0)->history().size(), kWindow);

  // Replication stays exact on the pruned histories.
  run_traffic(chain, 2'000);
  for (std::uint32_t m = 0; m < 3; ++m) {
    FtcNode* head_node = chain.ftc_node(m);
    FtcNode* replica = chain.ftc_node((m + 1) % chain.ring_size());
    ASSERT_NE(replica->applier(m), nullptr);
    EXPECT_EQ(count_of(replica->applier(m)->store(), head_node),
              count_of(head_node->head()->store(), head_node))
        << "mbox " << m;
  }
  EXPECT_GE(count_of(fresh->head()->store(), fresh), 50'000u);
  chain.stop();
}

// The wire-form history against the materializing oracle: random logs over
// random partition subsets, pruned by lagging commits, evicted by a small
// capacity, queried from random vectors. Prunes keep the live bytes far
// below the bytes recorded, so the byte FIFO must move its records to the
// front (or regrow) many times over, and the index ring wraps.
TEST(LogHistoryWire, MatchesMaterializingOracle) {
  std::mt19937_64 rng(0x4157);
  constexpr std::size_t kCapacity = 48;
  for (int round = 0; round < 4; ++round) {
    obs::Registry registry;
    obs::Counter& evicted = registry.counter("state.history_evicted");
    LogHistory wire(kCapacity, &evicted);
    MaterializingHistory oracle(kCapacity);
    std::array<std::uint64_t, state::kMaxPartitions> next{};
    std::size_t recorded_bytes = 0;
    for (int step = 0; step < 3000; ++step) {
      PiggybackLog log;
      log.mbox = 1;
      const std::size_t parts = 1 + rng() % 3;
      for (std::size_t i = 0; i < parts; ++i) {
        const std::size_t p = rng() % state::kMaxPartitions;
        if (log.dep.touches(p)) continue;
        log.dep.mask |= 1ULL << p;
        log.dep.seq[p] = ++next[p];
      }
      for (std::size_t w = rng() % 3; w > 0; --w) {
        std::vector<std::uint8_t> value(rng() % 200,
                                        static_cast<std::uint8_t>(step));
        log.writes.push_back(
            {rng() % 64, state::Bytes(value.data(), value.size()), w == 2});
      }
      const auto rec = wire_record(log);
      ASSERT_FALSE(rec.empty());
      recorded_bytes += rec.size();
      wire.record(rec);
      oracle.record(log);

      // A commit that lags the head by a random amount per partition.
      MaxVector lagging;
      for (std::size_t p = 0; p < state::kMaxPartitions; ++p) {
        const std::uint64_t lag = rng() % 8;
        lagging.seq[p] = next[p] > lag ? next[p] - lag : 0;
      }
      switch (rng() % 4) {
        case 0:
          wire.prune(lagging);
          oracle.prune(lagging);
          break;
        case 1:
          ASSERT_EQ(logs_after(wire, lagging), oracle.logs_after(lagging))
              << "round " << round << " step " << step;
          break;
        case 2:
          if (rng() % 50 == 0) {  // Everything replicated: the FIFO empties.
            MaxVector all;
            all.seq = next;
            wire.prune(all);
            oracle.prune(all);
            ASSERT_EQ(wire.size(), 0u);
          }
          break;
        default:
          break;
      }
      ASSERT_EQ(wire.size(), oracle.size());
      ASSERT_EQ(evicted.value(), oracle.evicted());
    }
    EXPECT_EQ(logs_after(wire, MaxVector{}), oracle.logs_after(MaxVector{}));
    EXPECT_GT(oracle.evicted(), 0u);                  // Capacity was hit.
    EXPECT_GT(recorded_bytes, 50 * kCapacity * 64);   // Far past any live set.
  }
}

TEST(LogHistoryWire, ServesRecordsByteForByte) {
  // A NACK reply carries the very bytes the history recorded.
  LogHistory h(65'536);
  std::vector<std::uint8_t> out;
  EXPECT_EQ(h.append_after(MaxVector{}, out), 0u);
  EXPECT_TRUE(out.empty());
  PiggybackLog log;
  log.mbox = 2;
  log.dep.mask = 0b101;
  log.dep.seq[0] = 3;
  log.dep.seq[2] = 9;
  log.writes.push_back({11, state::Bytes::of<std::uint64_t>(7), false});
  const auto rec = wire_record(log);
  h.record(rec);
  EXPECT_EQ(h.append_after(MaxVector{}, out), 1u);
  EXPECT_EQ(out, rec);

  // The record encoder a head records from writes byte for byte what a
  // view's append_log puts on the wire.
  pkt::Packet p;
  PiggybackView v = PiggybackView::create(p, state::kMaxPartitions);
  ASSERT_TRUE(v.append_log(log));
  const auto sent = v.log_bytes(0);
  EXPECT_EQ(rec, std::vector<std::uint8_t>(sent.begin(), sent.end()));
}

TEST(ProtocolTrace, LosslessTrafficEmitsNoPerPacketEvents) {
  // Protocol spans are always on but protocol-rate: on a lossless chain
  // nothing parks, NACKs or recovers, so with no packet sampled a node
  // records (nearly) nothing however many packets flow. Park spans are
  // recorded only for sampled packets; the park counter holds the total.
  ChainRuntime chain(monitor_chain(3, 1));
  chain.start();
  obs::SpanCollector spans(&chain.registry());
  run_traffic(chain, 20'000);
  chain.stop();
  const auto records = spans.snapshot();
  for (std::uint32_t pos = 0; pos < chain.ring_size(); ++pos) {
    const std::uint32_t site = obs::span_site_node(chain.ftc_node(pos)->id());
    const auto at_site = std::count_if(
        records.begin(), records.end(),
        [site](const obs::SpanRecord& r) { return r.site == site; });
    EXPECT_LT(at_site, 64) << "position " << pos;
    EXPECT_LT(chain.ftc_node(pos)->stats().packets_parked, 64u)
        << "position " << pos;
  }
}

}  // namespace
}  // namespace sfc::ftc
