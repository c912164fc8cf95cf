// End-to-end chain integration tests: NF / FTC / FTMB pipelines carrying
// real traffic, state replication invariants, loss and reordering.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "core/chain.hpp"
#include "mbox/firewall.hpp"
#include "mbox/gen.hpp"
#include "mbox/monitor.hpp"
#include "mbox/nat.hpp"
#include "packet/packet_io.hpp"
#include "tgen/traffic.hpp"
#include "wait_until.hpp"

namespace sfc::ftc {
namespace {

using mbox::Middlebox;

FtcNode::MboxFactory monitor_factory(std::uint32_t sharing = 1) {
  return [sharing]() -> std::unique_ptr<Middlebox> {
    return std::make_unique<mbox::Monitor>(sharing);
  };
}

FtcNode::MboxFactory nat_factory() {
  return []() -> std::unique_ptr<Middlebox> {
    return std::make_unique<mbox::MazuNat>();
  };
}

ChainRuntime::Spec spec_for(ChainMode mode, std::size_t chain_len,
                            std::uint32_t f = 1, std::size_t threads = 1) {
  ChainRuntime::Spec spec;
  spec.mode = mode;
  spec.cfg.f = f;
  spec.cfg.threads_per_node = threads;
  spec.cfg.pool_packets = 2048;
  for (std::size_t i = 0; i < chain_len; ++i) {
    spec.mbox_factories.push_back(monitor_factory());
  }
  return spec;
}

void pump_and_wait(ChainRuntime& chain, std::uint64_t packets,
                   const tgen::Workload& workload) {
  tgen::TrafficSource source(chain.pool(), chain.ingress(), workload);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  const auto deadline = rt::now_ns() + 20'000'000'000ull;
  while (source.packets_sent() < packets && rt::now_ns() < deadline) {
    std::this_thread::yield();
  }
  source.stop();
  while (sink.packets_received() < packets && rt::now_ns() < deadline) {
    std::this_thread::yield();
  }
  // Drain stragglers before stopping the sink: the source can overshoot
  // `packets` between our observation and stop() taking effect, and
  // stopping the sink with packets still in flight wedges them behind the
  // egress link — per-mode bookkeeping (e.g. FTMB PAL counters) would then
  // never settle. Wait until the chain holds no work.
  const auto q = test::wait_until([&] { return chain.quiescent(); },
                                  std::chrono::seconds(10));
  EXPECT_TRUE(q) << "chain did not quiesce: " << q.to_string();
  sink.stop();
  ASSERT_GE(sink.packets_received(), packets) << "chain did not deliver";
}

/// Waits until the idle-propagation machinery has flushed all replication
/// state: every buffer hold released and appliers converged.
void wait_for_convergence(ChainRuntime& chain, std::uint64_t timeout_ns) {
  const auto q = test::wait_until([&] { return chain.quiescent(); },
                                  std::chrono::milliseconds(timeout_ns / 1'000'000));
  if (!q) ADD_FAILURE() << "chain did not quiesce within timeout: " << q.to_string();
}

TEST(NfChain, DeliversAllPackets) {
  ChainRuntime chain(spec_for(ChainMode::kNf, 3));
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 2000;
  pump_and_wait(chain, kPackets, w);

  // Every Monitor in the chain counted every packet.
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto* node = chain.nf_node(i);
    ASSERT_NE(node, nullptr);
    auto* monitor = dynamic_cast<mbox::Monitor*>(node->middlebox());
    const auto count = node->store().get(monitor->counter_key(0));
    ASSERT_TRUE(count.has_value());
    EXPECT_GE(count->as<std::uint64_t>(), kPackets);
  }
  chain.stop();
}

TEST(FtcChain, DeliversAllPacketsAndReplicates) {
  ChainRuntime chain(spec_for(ChainMode::kFtc, 3));
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 2000;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 5'000'000'000ull);

  // Invariant: for each middlebox m, the replica store at m's successor
  // converges to the head store contents once the chain drains.
  for (std::uint32_t m = 0; m < 3; ++m) {
    auto* head_node = chain.ftc_node(m);
    auto* replica_node = chain.ftc_node((m + 1) % chain.ring_size());
    ASSERT_NE(head_node, nullptr);
    ASSERT_NE(replica_node, nullptr);
    auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
    const state::Key key = monitor->counter_key(0);

    const auto head_count = head_node->head()->store().get(key);
    ASSERT_TRUE(head_count.has_value());
    EXPECT_GE(head_count->as<std::uint64_t>(), kPackets);

    InOrderApplier* applier = replica_node->applier(m);
    ASSERT_NE(applier, nullptr);
    const auto replica_count = applier->store().get(key);
    ASSERT_TRUE(replica_count.has_value()) << "mbox " << m;
    EXPECT_EQ(replica_count->as<std::uint64_t>(),
              head_count->as<std::uint64_t>())
        << "mbox " << m << " replica lag";
  }
  EXPECT_EQ(chain.buffer()->held_count(), 0u);
  chain.stop();
}

// The head records its piggyback distributions once per run of equal
// per-packet values, and stops polling the feedback channel once it runs
// dry within a burst: still one sample per packet it attached a message
// to, the smallest an empty message. (Whether any feedback rides a data
// packet rather than a propagating one depends on timing.)
TEST(FtcChain, HeadIngressHistogramsCountEveryPacket) {
  ChainRuntime chain(spec_for(ChainMode::kFtc, 3));
  chain.start();
  tgen::Workload w;
  pump_and_wait(chain, 2000, w);
  wait_for_convergence(chain, 5'000'000'000ull);

  rt::Histogram bytes;
  rt::Histogram logs;
  for (const obs::Sample& s : chain.registry().snapshot()) {
    if (s.name == "piggyback.bytes_per_packet") bytes.merge(s.hist);
    if (s.name == "piggyback.logs_per_packet") logs.merge(s.hist);
  }
  const std::uint64_t head_packets = chain.ftc_node(0)->stats().packets_processed;
  EXPECT_GE(head_packets, 2000u);
  EXPECT_EQ(bytes.count(), head_packets);
  EXPECT_EQ(logs.count(), head_packets);
  EXPECT_EQ(bytes.min(), kWireHeaderSize + kFooterSize);
  EXPECT_EQ(logs.min(), 0u);
  chain.stop();
}

TEST(FtcChain, SingleMiddleboxChainExtendsRing) {
  // Chain of 1 middlebox with f=1 must extend to a ring of 2 (paper §5.1).
  ChainRuntime chain(spec_for(ChainMode::kFtc, 1));
  EXPECT_EQ(chain.ring_size(), 2u);
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 1000;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 5'000'000'000ull);

  auto* head_node = chain.ftc_node(0);
  auto* replica_node = chain.ftc_node(1);
  EXPECT_TRUE(head_node->has_mbox());
  EXPECT_FALSE(replica_node->has_mbox());  // Pure replica extension.
  auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
  const auto key = monitor->counter_key(0);
  const auto head_count = head_node->head()->store().get(key);
  const auto replica = replica_node->applier(0);
  ASSERT_NE(replica, nullptr);
  ASSERT_TRUE(head_count.has_value());
  ASSERT_TRUE(replica->store().get(key).has_value());
  EXPECT_EQ(replica->store().get(key)->as<std::uint64_t>(),
            head_count->as<std::uint64_t>());
  chain.stop();
}

TEST(FtcChain, NatChainRewritesAndReplicatesFlowTable) {
  ChainRuntime::Spec spec;
  spec.mode = ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.threads_per_node = 1;
  spec.cfg.pool_packets = 2048;
  spec.mbox_factories = {monitor_factory(), nat_factory()};
  ChainRuntime chain(spec);
  chain.start();

  tgen::Workload w;
  w.num_flows = 16;
  constexpr std::uint64_t kPackets = 1000;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 5'000'000'000ull);

  // The NAT (position 1) created one forward + one reverse mapping per
  // flow plus the port counter; its replica (ring position 0) must agree.
  auto* nat_node = chain.ftc_node(1);
  auto* replica_node = chain.ftc_node(0);
  InOrderApplier* applier = replica_node->applier(1);
  ASSERT_NE(applier, nullptr);
  EXPECT_EQ(nat_node->head()->store().total_entries(), 2 * w.num_flows + 1);
  EXPECT_EQ(applier->store().total_entries(), 2 * w.num_flows + 1);

  for (std::size_t i = 0; i < w.num_flows; ++i) {
    const auto key = w.flow(i).hash();
    const auto head_entry = nat_node->head()->store().get(key);
    const auto replica_entry = applier->store().get(key);
    ASSERT_TRUE(head_entry.has_value());
    ASSERT_TRUE(replica_entry.has_value());
    EXPECT_TRUE(*head_entry == *replica_entry);
  }
  chain.stop();
}

void run_lossy_retransmission_case(std::size_t burst_size) {
  auto spec = spec_for(ChainMode::kFtc, 3);
  spec.cfg.link.loss = 0.01;           // 1% loss on every hop.
  spec.cfg.link.delay_ns = 1000;       // Force the timed (lossy) path.
  spec.cfg.retransmit_timeout_ns = 2'000'000;
  spec.cfg.nack_min_gap_ns = 500'000;
  spec.cfg.burst_size = burst_size;
  ChainRuntime chain(spec);
  chain.start();

  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 50'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));  // Traffic.
  source.stop();

  // Some packets were lost (that is expected); state must stay consistent:
  // after convergence each replica matches its head exactly.
  wait_for_convergence(chain, 10'000'000'000ull);
  const auto replicas_match_heads = [&] {
    for (std::uint32_t m = 0; m < 3; ++m) {
      const auto key = dynamic_cast<mbox::Monitor*>(
                           chain.ftc_node(m)->middlebox())->counter_key(0);
      const auto head = chain.ftc_node(m)->head()->store().get(key);
      const auto replica = chain.ftc_node((m + 1) % chain.ring_size())
                               ->applier(m)->store().get(key);
      if (!head || !replica ||
          head->as<std::uint64_t>() != replica->as<std::uint64_t>()) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(test::wait_until(replicas_match_heads, std::chrono::seconds(10)))
      << "replicas_match_heads never held";

  for (std::uint32_t m = 0; m < 3; ++m) {
    auto* head_node = chain.ftc_node(m);
    auto* replica_node = chain.ftc_node((m + 1) % chain.ring_size());
    auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
    const auto key = monitor->counter_key(0);
    const auto head_count = head_node->head()->store().get(key);
    ASSERT_TRUE(head_count.has_value());
    InOrderApplier* applier = replica_node->applier(m);
    const auto replica_count = applier->store().get(key);
    ASSERT_TRUE(replica_count.has_value());
    EXPECT_EQ(replica_count->as<std::uint64_t>(),
              head_count->as<std::uint64_t>())
        << "replica of mbox " << m << " diverged under loss";
  }
  sink.stop();
  chain.stop();
}

TEST(FtcChain, SurvivesLossyLinksWithRetransmission) {
  run_lossy_retransmission_case(32);
}

TEST(FtcChain, SurvivesLossyLinksWithRetransmissionBurst1) {
  // Burst 1 = the pre-batching per-packet data path; loss -> NACK ->
  // retransmission must behave identically.
  run_lossy_retransmission_case(1);
}

void run_reordering_case(std::size_t burst_size) {
  auto spec = spec_for(ChainMode::kFtc, 2, /*f=*/1, /*threads=*/2);
  spec.cfg.link.delay_ns = 2000;
  spec.cfg.link.reorder = 0.05;
  spec.cfg.link.reorder_extra_ns = 50'000;
  spec.cfg.burst_size = burst_size;
  ChainRuntime chain(spec);
  chain.start();

  tgen::Workload w;
  constexpr std::uint64_t kPackets = 1500;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 10'000'000'000ull);

  auto* head_node = chain.ftc_node(0);
  auto* replica_node = chain.ftc_node(1);
  auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
  // With 2 threads at sharing level 1 there are two counters.
  for (std::uint32_t t = 0; t < 2; ++t) {
    const auto key = monitor->counter_key(t);
    const auto head_count = head_node->head()->store().get(key);
    if (!head_count) continue;  // Thread may not have processed anything.
    const auto replica_count = replica_node->applier(0)->store().get(key);
    ASSERT_TRUE(replica_count.has_value());
    EXPECT_EQ(replica_count->as<std::uint64_t>(),
              head_count->as<std::uint64_t>());
  }
  chain.stop();
}

TEST(FtcChain, ToleratesReorderingViaDependencyVectors) {
  run_reordering_case(32);
}

TEST(FtcChain, ToleratesReorderingViaDependencyVectorsBurst1) {
  run_reordering_case(1);
}

TEST(FtcChain, FilteringMiddleboxEmitsPropagatingPackets) {
  // Firewall drops half the traffic; the Monitor behind it must still
  // replicate correctly (drop-generated propagating packets carry state).
  ChainRuntime::Spec spec;
  spec.mode = ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.threads_per_node = 1;
  spec.cfg.pool_packets = 2048;
  spec.mbox_factories = {
      monitor_factory(),
      []() -> std::unique_ptr<Middlebox> {
        // Deny all traffic to odd destination ports.
        std::vector<mbox::FirewallRule> rules;
        rules.push_back(mbox::FirewallRule{
            0, 0, 0, 0, /*dst_port=*/443, /*protocol=*/0, /*allow=*/false});
        return std::make_unique<mbox::Firewall>(std::move(rules), true);
      },
      monitor_factory(),
  };
  ChainRuntime chain(spec);
  chain.start();

  // Half the flows hit port 443 (denied), half port 80 (allowed).
  tgen::Workload denied;
  denied.dst_port = 443;
  denied.num_flows = 8;
  tgen::Workload allowed;
  allowed.dst_port = 80;
  allowed.num_flows = 8;

  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  tgen::TrafficSource src_denied(chain.pool(), chain.ingress(), denied, 20'000);
  tgen::TrafficSource src_allowed(chain.pool(), chain.ingress(), allowed, 20'000);
  src_denied.start();
  src_allowed.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // Traffic.
  src_denied.stop();
  src_allowed.stop();
  wait_for_convergence(chain, 5'000'000'000ull);

  // Monitor 0 (before the firewall) counted everything and must be fully
  // replicated at node 1 even though half its packets died at the firewall.
  auto* m0 = chain.ftc_node(0);
  auto* monitor = dynamic_cast<mbox::Monitor*>(m0->middlebox());
  const auto key = monitor->counter_key(0);
  const auto replica_matches_head = [&] {
    const auto head = m0->head()->store().get(key);
    const auto replica = chain.ftc_node(1)->applier(0)->store().get(key);
    return head && replica &&
           head->as<std::uint64_t>() == replica->as<std::uint64_t>();
  };
  EXPECT_TRUE(test::wait_until(replica_matches_head, std::chrono::seconds(5)))
      << "replica_matches_head never held";
  const auto head_count = m0->head()->store().get(key);
  ASSERT_TRUE(head_count.has_value());
  const auto replica_count = chain.ftc_node(1)->applier(0)->store().get(key);
  ASSERT_TRUE(replica_count.has_value());
  EXPECT_EQ(replica_count->as<std::uint64_t>(), head_count->as<std::uint64_t>());
  EXPECT_GT(chain.ftc_node(1)->stats().drops_filtered, 0u);

  sink.stop();
  chain.stop();
}

// Gen writes ~2 KB of state per packet, so at f=2 a packet would carry two
// in-flight logs plus its own: messages outgrow every frame and detour onto
// propagating packets, a detour outgrows one propagating packet, and merged
// feedback outgrows any single packet. Over lossless, in-order links none
// of that may lose state: every packet is delivered, every replica matches
// its head, and no gap ever needs a NACK to fill it.
TEST(FtcChain, OversizeStateDetoursWithoutLoss) {
  auto spec = spec_for(ChainMode::kFtc, 3, /*f=*/2);
  spec.mbox_factories.clear();
  for (int i = 0; i < 3; ++i) {
    spec.mbox_factories.push_back(
        []() -> std::unique_ptr<Middlebox> { return std::make_unique<mbox::Gen>(2000); });
  }
  ChainRuntime chain(spec);
  chain.start();

  tgen::Workload w;
  w.num_flows = 8;
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 5'000.0);
  source.start();
  const auto sent_1000 = [&] { return source.packets_sent() >= 1000; };
  EXPECT_TRUE(test::wait_until(sent_1000, std::chrono::seconds(20)))
      << "sent_1000 never held";
  source.stop();
  const std::uint64_t sent = source.packets_sent();
  const auto all_delivered = [&] { return sink.packets_received() >= sent; };
  EXPECT_TRUE(test::wait_until(all_delivered, std::chrono::seconds(20)))
      << "all_delivered never held";
  wait_for_convergence(chain, 10'000'000'000ull);
  EXPECT_EQ(sink.packets_received(), sent);
  sink.stop();

  std::uint64_t detours = 0;
  std::uint64_t nacks = 0;
  for (std::uint32_t pos = 0; pos < chain.ring_size(); ++pos) {
    const NodeStats st = chain.ftc_node(pos)->stats();
    detours += st.oversize_detours;
    nacks += st.nacks_sent;
  }
  EXPECT_GT(detours, 0u);
  EXPECT_EQ(nacks, 0u) << "state was dropped on the way and had to be NACKed";

  const state::Key key = state::key_of_name("gen-state");  // Thread 0.
  for (std::uint32_t m = 0; m < 3; ++m) {
    HeadStore* head = chain.ftc_node(m)->head();
    const auto head_value = head->store().get(key);
    ASSERT_TRUE(head_value.has_value()) << "mbox " << m;
    for (std::uint32_t k = 1; k <= 2; ++k) {
      InOrderApplier* replica = chain.ftc_node((m + k) % 3)->applier(m);
      ASSERT_NE(replica, nullptr) << "mbox " << m << " succ " << k;
      EXPECT_EQ(replica->store().total_entries(), head->store().total_entries())
          << "mbox " << m << " succ " << k;
      const auto value = replica->store().get(key);
      ASSERT_TRUE(value.has_value()) << "mbox " << m << " succ " << k;
      EXPECT_TRUE(*value == *head_value) << "mbox " << m << " succ " << k;
    }
  }
  chain.stop();
}

TEST(FtmbChain, DeliversAndEmitsPals) {
  ChainRuntime chain(spec_for(ChainMode::kFtmb, 2));
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 1000;
  pump_and_wait(chain, kPackets, w);

  for (std::uint32_t i = 0; i < 2; ++i) {
    auto* master = chain.ftmb_master(i);
    auto* logger = chain.ftmb_logger(i);
    ASSERT_NE(master, nullptr);
    ASSERT_NE(logger, nullptr);
    // Monitor does one fetch_add = two accesses (read+write) per packet.
    EXPECT_GE(master->pals_sent(), kPackets);
    EXPECT_EQ(logger->pals_received(), master->pals_sent());
    EXPECT_GE(logger->inputs_logged(), kPackets);
  }
  chain.stop();
}

TEST(FtmbChain, SnapshotModeStalls) {
  auto spec = spec_for(ChainMode::kFtmbSnapshot, 2);
  spec.cfg.snapshot_interval_ns = 20'000'000;  // 20 ms for test speed.
  spec.cfg.snapshot_stall_ns = 2'000'000;
  ChainRuntime chain(spec);
  chain.start();
  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 10'000);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // Traffic.
  source.stop();
  const auto all_delivered = [&] {
    return sink.packets_received() >= source.packets_sent();
  };
  EXPECT_TRUE(test::wait_until(all_delivered, std::chrono::seconds(5)))
      << "all_delivered never held";
  sink.stop();
  EXPECT_GT(chain.ftmb_master(0)->snapshot_stalls(), 5u);
  chain.stop();
}

TEST(FtcChain, ReplicationFactorTwoGroupsSpanTwoSuccessors) {
  // f=2 on a 4-chain: each middlebox's state must appear on BOTH
  // successors.
  auto spec = spec_for(ChainMode::kFtc, 4, /*f=*/2);
  ChainRuntime chain(spec);
  chain.start();
  tgen::Workload w;
  constexpr std::uint64_t kPackets = 1500;
  pump_and_wait(chain, kPackets, w);
  wait_for_convergence(chain, 10'000'000'000ull);

  for (std::uint32_t m = 0; m < 4; ++m) {
    auto* head_node = chain.ftc_node(m);
    auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
    const auto key = monitor->counter_key(0);
    const auto head_count = head_node->head()->store().get(key);
    ASSERT_TRUE(head_count.has_value());
    for (std::uint32_t k = 1; k <= 2; ++k) {
      auto* replica_node = chain.ftc_node((m + k) % chain.ring_size());
      InOrderApplier* applier = replica_node->applier(m);
      ASSERT_NE(applier, nullptr) << "mbox " << m << " succ " << k;
      const auto count = applier->store().get(key);
      ASSERT_TRUE(count.has_value()) << "mbox " << m << " succ " << k;
      EXPECT_EQ(count->as<std::uint64_t>(), head_count->as<std::uint64_t>())
          << "mbox " << m << " succ " << k;
    }
  }
  chain.stop();
}

/// A UDP frame from @p chain's data pool, or nullptr when it is empty.
pkt::Packet* udp_packet(ChainRuntime& chain, std::uint64_t id) {
  pkt::Packet* p = chain.pool().alloc_raw();
  if (p != nullptr) {
    pkt::PacketBuilder(*p).udp(
        pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 128);
    p->anno().packet_id = id;
    p->anno().ingress_ns = rt::now_ns();
  }
  return p;
}

double gauge_value(ChainRuntime& chain, std::string_view name) {
  for (const auto& sample : chain.registry().snapshot()) {
    if (sample.name == name) return sample.value;
  }
  return -1;
}

TEST(FtcChain, StopReturnsWhileTheTailWaitsOnAStoppedHead) {
  // Teardown stops the head first. The tail then still pushes the logs
  // bound for the head into the feedback channel, which nobody drains any
  // more: once it is full, the tail's worker waits there, and stop() must
  // not wait behind it.
  auto spec = spec_for(ChainMode::kFtc, 3);
  spec.cfg.pool_packets = 4096;
  // The egress buffer hands feedback off once per burst: one-packet bursts
  // make one hand-off per packet.
  spec.cfg.burst_size = 1;
  ChainRuntime chain(spec);
  chain.start();
  chain.ftc_node(0)->stop();
  // Feed position 1 directly: every packet leaves the tail with a log for
  // the head, one feedback hand-off each, past the channel's 1024.
  for (std::uint64_t i = 0; i < 2000; ++i) {
    pkt::Packet* p = udp_packet(chain, i);
    ASSERT_NE(p, nullptr);
    ASSERT_TRUE(chain.segment(1).send_blocking(p));
  }
  ASSERT_TRUE(test::wait_until(
      [&] { return gauge_value(chain, "forwarder.feedback_pending") >= 1024; },
      std::chrono::seconds(10)))
      << "the feedback channel never filled";

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    chain.stop();
    stopped.store(true);
  });
  const bool in_time = test::wait_until([&] { return stopped.load(); },
                                        std::chrono::seconds(1));
  // A push blind to the stop flag waits for room: drain the channel the
  // way the head would, so the test fails instead of hanging.
  while (!stopped.load()) {
    (void)chain.forwarder()->collect();
    std::this_thread::yield();
  }
  stopper.join();
  EXPECT_TRUE(in_time) << "stop() waited on the tail's feedback push";
}

TEST(FtcChain, NeverQuiescentWhileTheBufferStages) {
  // Releases and feedback a burst staged at the egress buffer are in no
  // link or channel: quiescent() must see them until end_burst() ships.
  const auto spec = spec_for(ChainMode::kFtc, 3);
  ChainRuntime chain(spec);
  chain.start();
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  ASSERT_TRUE(test::wait_until([&] { return chain.quiescent(); },
                               std::chrono::seconds(5)));

  // A data packet whose message carries one record of the wrap-around
  // middlebox 2 (its tail, position 0, strips it) for the forwarder.
  pkt::Packet* p = udp_packet(chain, 1);
  ASSERT_NE(p, nullptr);
  PiggybackView v = PiggybackView::create(*p, spec.cfg.num_partitions);
  PiggybackLog log;
  log.mbox = 2;
  log.dep.mask = 1;
  log.dep.seq[0] = 1;
  ASSERT_TRUE(v.append_log(log));
  // Covered already by a commit a propagating packet delivered, so it
  // releases at once rather than holding.
  pkt::Packet* prop = Forwarder::make_propagating_packet(chain.pool());
  ASSERT_NE(prop, nullptr);
  PiggybackView pv = PiggybackView::create(*prop, spec.cfg.num_partitions);
  MaxVector max;
  max.seq[0] = 1;
  ASSERT_TRUE(pv.set_commit(2, max));
  EgressBuffer::Batch one;
  chain.buffer()->submit_wire(one, prop, pv);
  chain.buffer()->end_burst(one);
  EgressBuffer::Batch batch;
  chain.buffer()->submit_wire(batch, p, v);

  for (int i = 0; i < 20; ++i) {
    const auto q = chain.quiescent();
    ASSERT_FALSE(q) << "quiescent with a staged release and hand-off";
    EXPECT_EQ(q.blocker, QuiescenceReport::Blocker::kBuffer) << q.to_string();
  }
  chain.buffer()->end_burst(batch);
  const auto q = test::wait_until([&] { return chain.quiescent(); },
                                  std::chrono::seconds(5));
  EXPECT_TRUE(q) << q.to_string();
  EXPECT_TRUE(test::wait_until([&] { return sink.packets_received() == 1; },
                               std::chrono::seconds(5)));
  sink.stop();
  chain.stop();
}

// On the data path the buffer learns commit vectors only in submit_wire:
// no hop decodes the commits a packet carries. A commit that reaches the
// last position on a data packet whose message then detours (the packet
// has no room left for the last middlebox's own log) rides a propagating
// packet into the buffer, and must still release the packet held for it.
TEST(FtcChain, DetouredCommitReleasesHeldPacket) {
  const auto spec = spec_for(ChainMode::kFtc, 3);
  ChainRuntime chain(spec);
  chain.start();
  // No propagation: only position 0, the chain ingress, sends propagating
  // packets, so with it stopped only the packets below carry commits.
  chain.ftc_node(0)->stop();
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  const std::uint32_t last = chain.ring_size() - 1;
  const auto packet = [&](std::uint64_t id, std::size_t frame_len) {
    pkt::Packet* p = chain.pool().alloc_raw();
    if (p != nullptr) {
      pkt::PacketBuilder(*p).udp(
          pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, frame_len);
      p->anno().packet_id = id;
      p->anno().ingress_ns = rt::now_ns();
    }
    return p;
  };

  // A carries the last middlebox's log, whose tail wraps around to
  // position 0, so the buffer holds it until a commit covers that log.
  pkt::Packet* a = packet(1, 128);
  ASSERT_NE(a, nullptr);
  const std::size_t a_tailroom = a->tailroom();
  ASSERT_TRUE(chain.segment(last).send(a));
  const auto a_held = [&] { return chain.buffer()->held_count() == 1; };
  ASSERT_TRUE(test::wait_until(a_held, std::chrono::seconds(5)))
      << "a_held never held";

  // B carries a commit covering A's log, in a frame sized so that the
  // commit fits and the last middlebox's own log does not.
  const std::size_t message = kWireHeaderSize + 4 +
                              8 * spec.cfg.num_partitions + kFooterSize;
  constexpr std::size_t kSpare = 16;  // Less than any log record.
  pkt::Packet* b = packet(2, 128 + a_tailroom - message - kSpare);
  ASSERT_NE(b, nullptr);
  PiggybackView v = PiggybackView::create(*b, spec.cfg.num_partitions);
  ASSERT_TRUE(v.ok());
  MaxVector covering;
  covering.seq.fill(1);
  ASSERT_TRUE(v.set_commit(last, covering));
  ASSERT_EQ(b->tailroom(), kSpare);
  ASSERT_TRUE(chain.segment(last).send(b));

  const auto both_delivered = [&] { return sink.packets_received() == 2; };
  EXPECT_TRUE(test::wait_until(both_delivered, std::chrono::seconds(5)))
      << "both_delivered never held; received " << sink.packets_received()
      << ", the buffer holds " << chain.buffer()->held_count() << ", released "
      << chain.buffer()->stats().released << ", submitted "
      << chain.buffer()->stats().submitted;
  EXPECT_GE(chain.ftc_node(last)->stats().oversize_detours, 1u);
  EXPECT_EQ(chain.buffer()->held_count(), 0u);
  sink.stop();
  chain.stop();
}

// The last position's commit notices reach the buffer too: a wrap-around
// middlebox's notice passes it on the way from tail to head, so a commit
// lost on the data path (the last one of a run, say) does not strand the
// packets it covers.
TEST(FtcChain, CommitNoticeReleasesHeldPacket) {
  const auto spec = spec_for(ChainMode::kFtc, 3);
  ChainRuntime chain(spec);
  chain.start();
  // Position 0, the chain ingress and the tail of the last middlebox, is
  // stopped: A's log never reaches its tail, so only the notice below can
  // cover it.
  chain.ftc_node(0)->stop();
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  const std::uint32_t last = chain.ring_size() - 1;

  // A carries the last middlebox's log, whose tail wraps around to
  // position 0, so the buffer holds it until a commit covers that log.
  pkt::Packet* a = chain.pool().alloc_raw();
  ASSERT_NE(a, nullptr);
  pkt::PacketBuilder(*a).udp(
      pkt::FlowKey{1, 2, 3, 4, pkt::Ipv4Header::kProtoUdp}, 128);
  a->anno().packet_id = 1;
  a->anno().ingress_ns = rt::now_ns();
  ASSERT_TRUE(chain.segment(last).send(a));
  ASSERT_TRUE(test::wait_until(
      [&] { return chain.buffer()->held_count() == 1; },
      std::chrono::seconds(5)))
      << "A never held";

  // The tail's notice for mbox `last`, as it reaches the last position
  // (mbox id + MAX, as FtcNode encodes it).
  MaxVector covering;
  covering.seq.fill(1);
  net::Message notice;
  notice.type = kCommitNotice;
  notice.from = chain.ftc_node(0)->id();
  notice.to = chain.ftc_node(last)->id();
  const auto* mbox = reinterpret_cast<const std::uint8_t*>(&last);
  notice.payload.assign(mbox, mbox + sizeof(last));
  const auto* seq = reinterpret_cast<const std::uint8_t*>(covering.seq.data());
  notice.payload.insert(notice.payload.end(), seq, seq + sizeof(covering.seq));
  chain.control().send(std::move(notice));

  EXPECT_TRUE(test::wait_until([&] { return sink.packets_received() == 1; },
                               std::chrono::seconds(5)))
      << "A never delivered; the buffer holds "
      << chain.buffer()->held_count();
  EXPECT_EQ(chain.buffer()->held_count(), 0u);
  sink.stop();
  chain.stop();
}

// The chain ingress sends pending feedback on its first empty poll. One
// packet through a Ch-3 of Monitors is held at the buffer until its last
// middlebox's log reaches that middlebox's tail, position 0, and the
// commit comes back; with no later data packet to carry either, a
// propagating packet must.
TEST(FtcChain, IdleIngressCarriesHeldLogAtOnce) {
  const auto spec = spec_for(ChainMode::kFtc, 3);
  ChainRuntime chain(spec);
  chain.start();
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  pkt::Packet* p = udp_packet(chain, 1);
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(chain.ingress().send_blocking(p));
  EXPECT_TRUE(test::wait_until([&] { return sink.packets_received() == 1; },
                               std::chrono::seconds(5)))
      << "the packet was never delivered; the buffer holds "
      << chain.buffer()->held_count();
  EXPECT_TRUE(test::wait_until(
      [&] { return chain.buffer()->held_count() == 0; },
      std::chrono::seconds(5)));
  EXPECT_GE(chain.ftc_node(0)->stats().control_packets, 1u);
  const auto q = test::wait_until([&] { return chain.quiescent(); },
                                  std::chrono::seconds(5));
  EXPECT_TRUE(q) << q.to_string();
  sink.stop();
  chain.stop();
}

TEST(FtcChain, QuiescentObservationsMatchReplicatedState) {
  // One thread reads quiescent() in a tight loop while single bursts are
  // injected with gaps between them. Every quiescent observation must
  // find each head store equal to its replica: no burst may be in a place
  // the check does not look. The lock keeps injection out of each
  // observe-and-compare window, so the state cannot move in between.
  ChainRuntime chain(spec_for(ChainMode::kFtc, 4));
  chain.start();
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();

  const auto counter = [](HeadStore* head, InOrderApplier* applier,
                          mbox::Monitor* monitor) {
    const auto at = [&](state::StateStore& store) -> std::uint64_t {
      const auto v = store.get(monitor->counter_key(0));
      return v ? v->as<std::uint64_t>() : 0;
    };
    return std::make_pair(at(head->store()), at(applier->store()));
  };
  std::mutex mu;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> observations{0};
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  std::thread checker([&] {
    while (!done.load()) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (chain.quiescent()) {
          ++observations;
          for (std::uint32_t m = 0; m < 4; ++m) {
            FtcNode* head = chain.ftc_node(m);
            auto* monitor = dynamic_cast<mbox::Monitor*>(head->middlebox());
            const auto [h, r] =
                counter(head->head(), chain.ftc_node((m + 1) % 4)->applier(m),
                        monitor);
            if (h != r && mismatches++ == 0) {
              first_mismatch = "mbox " + std::to_string(m) + ": head " +
                               std::to_string(h) + " replica " +
                               std::to_string(r);
            }
          }
        }
      }
      std::this_thread::yield();
    }
  });

  constexpr std::size_t kBurst = 32;
  std::uint64_t id = 0;
  for (int burst = 0; burst < 300; ++burst) {
    {
      std::lock_guard<std::mutex> lock(mu);
      pkt::Packet* b[kBurst];
      std::size_t n = 0;
      while (n < kBurst && (b[n] = udp_packet(chain, id++)) != nullptr) ++n;
      const std::size_t sent = chain.ingress().send_burst({b, n});
      for (std::size_t i = sent; i < n; ++i) chain.pool().free_raw(b[i]);
    }
    // Gaps from none to 0.5 ms: some bursts find the chain idle, some
    // catch the previous one mid-flight.
    std::this_thread::sleep_for(std::chrono::microseconds((burst * 37) % 500));
  }
  // The checker must also see the chain quiet after the last burst.
  const std::uint64_t before_settling = observations.load();
  const bool settled = test::wait_until(
      [&] { return observations.load() > before_settling; },
      std::chrono::seconds(10));
  done.store(true);
  checker.join();
  EXPECT_TRUE(settled) << "never quiescent after the last burst";
  EXPECT_EQ(mismatches, 0u) << "of " << observations.load()
                            << " quiescent observations; first: "
                            << first_mismatch;
  sink.stop();
  chain.stop();
}

}  // namespace
}  // namespace sfc::ftc
