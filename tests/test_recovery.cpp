// Failure detection and recovery tests (paper §5.2, §7.5): heartbeat
// detection, single and simultaneous failures, state integrity across
// failover, WAN recovery timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "core/chain.hpp"
#include "mbox/monitor.hpp"
#include "mbox/nat.hpp"
#include "obs/span.hpp"
#include "orch/orchestrator.hpp"
#include "tgen/traffic.hpp"
#include "span_match.hpp"
#include "wait_until.hpp"
#include "wire_oracle.hpp"

namespace sfc::orch {
namespace {

using namespace std::chrono_literals;

using ftc::ChainMode;
using ftc::ChainRuntime;
using ftc::FtcNode;
using ftc::InOrderApplier;

ChainRuntime::Spec monitor_chain(std::size_t len, std::uint32_t f = 1) {
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

std::uint64_t monitor_count(FtcNode* node) {
  auto* monitor = dynamic_cast<mbox::Monitor*>(node->middlebox());
  const auto v = node->head()->store().get(monitor->counter_key(0));
  return v ? v->as<std::uint64_t>() : 0;
}

// Replication-convergence barrier: recovery rebuilds a head store from a
// replica's applier, so count comparisons against the pre-failure head are
// only exact once nothing is in flight. A fixed sleep is not enough on a
// slow host (e.g. under TSan, where draining the chain takes far longer
// than 50 ms).
void quiesce(ChainRuntime& chain) {
  const auto q = test::wait_until([&] { return chain.quiescent(); }, 15s);
  ASSERT_TRUE(q) << q.to_string();
}

void pump(ChainRuntime& chain, tgen::TrafficSource& src, tgen::TrafficSink& sink,
          std::uint64_t target) {
  const auto deadline = rt::now_ns() + 20'000'000'000ull;
  while (sink.packets_received() < target && rt::now_ns() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(sink.packets_received(), target);
  (void)chain;
  (void)src;
}

void run_manual_failure_case(std::size_t burst_size) {
  auto spec = monitor_chain(3);
  spec.cfg.burst_size = burst_size;
  ChainRuntime chain(spec);
  chain.start();
  Orchestrator orch(chain);

  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 30'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  pump(chain, source, sink, 1000);

  // Remember the pre-failure state of middlebox 1 as seen by its replica.
  source.stop();
  quiesce(chain);
  const std::uint64_t pre_failure_count = monitor_count(chain.ftc_node(1));
  EXPECT_GT(pre_failure_count, 0u);

  // Kill node 1 (middlebox + its head). Its state must be rebuilt from the
  // successor's applier.
  chain.fail_position(1);
  auto reports = orch.recover({1});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].success);
  EXPECT_GT(reports[0].state_recovery_ns, 0u);

  FtcNode* new_node = chain.ftc_node(1);
  EXPECT_NE(new_node->id(), reports[0].failed_node);
  // The recovered head store carries the full pre-failure count.
  EXPECT_EQ(monitor_count(new_node), pre_failure_count);

  // And the chain keeps working: more traffic flows end-to-end through the
  // replacement.
  const std::uint64_t before = sink.packets_received();
  tgen::TrafficSource source2(chain.pool(), chain.ingress(), w, 30'000.0);
  source2.start();
  const auto deadline = rt::now_ns() + 10'000'000'000ull;
  while (sink.packets_received() < before + 500 && rt::now_ns() < deadline) {
    std::this_thread::yield();
  }
  source2.stop();
  EXPECT_GE(sink.packets_received(), before + 500);

  // Converge before reading: shard-affine get() supports quiesced stores
  // only (straggler packets past the received-count check would otherwise
  // still be committing while we read).
  quiesce(chain);
  // The new head continues counting from the restored value.
  EXPECT_GT(monitor_count(new_node), pre_failure_count);

  sink.stop();
  chain.stop();
}

TEST(Recovery, ManualSingleFailureRestoresState) {
  run_manual_failure_case(32);
}

TEST(Recovery, ManualSingleFailureRestoresStateBurst1) {
  // Failure -> recovery must be burst-invariant (burst 1 = the
  // pre-batching per-packet data path).
  run_manual_failure_case(1);
}

TEST(Recovery, HeartbeatMonitorDetectsAndRecovers) {
  ChainRuntime chain(monitor_chain(3));
  chain.start();
  // Generous timings: the test suite runs many-threads-on-few-cores, so a
  // healthy node's pong can easily be delayed tens of milliseconds.
  OrchestratorConfig cfg;
  cfg.heartbeat_interval_ns = 10'000'000;
  cfg.failure_timeout_ns = 100'000'000;
  Orchestrator orch(chain, cfg);
  orch.start();

  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 20'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  pump(chain, source, sink, 500);

  const auto old_id = chain.ftc_node(2)->id();
  chain.fail_position(2);

  // The monitor must detect the silence and complete recovery on its own.
  // It swaps the replacement in before appending its report — wait for
  // both, or the assertions below race with the tail of the monitor's
  // recovery pass.
  const auto replaced_and_reported = [&] {
    return chain.ftc_node(2)->id() != old_id &&
           !chain.ftc_node(2)->has_failed() && !orch.reports().empty();
  };
  EXPECT_TRUE(test::wait_until(replaced_and_reported, 15s, 5ms))
      << "the monitor never swapped in a live replacement and reported it";
  EXPECT_NE(chain.ftc_node(2)->id(), old_id);
  EXPECT_GE(orch.failures_detected(), 1u);
  ASSERT_FALSE(orch.reports().empty());
  EXPECT_TRUE(orch.reports().back().success);

  // Traffic still flows.
  const std::uint64_t before = sink.packets_received();
  const auto deadline2 = rt::now_ns() + 10'000'000'000ull;
  while (sink.packets_received() < before + 300 && rt::now_ns() < deadline2) {
    std::this_thread::yield();
  }
  EXPECT_GE(sink.packets_received(), before + 300);

  source.stop();
  sink.stop();
  orch.stop();
  chain.stop();
}

TEST(Recovery, HeartbeatMonitorKeepsLiveNodes) {
  // A ping round on every monitor pass: pongs keep arriving while the
  // monitor absorbs them, and none of them may make a live node look
  // silent.
  ChainRuntime chain(monitor_chain(3));
  chain.start();
  OrchestratorConfig cfg;
  cfg.heartbeat_interval_ns = 0;
  cfg.failure_timeout_ns = 5'000'000'000;
  Orchestrator orch(chain, cfg);
  orch.start();
  const auto& pings =
      chain.registry().counter("orch.pings_sent", {{"node", "orch"}});
  EXPECT_TRUE(test::wait_until([&] { return pings.value() >= 600; }, 30s));
  orch.stop();
  EXPECT_EQ(orch.failures_detected(), 0u);
  chain.stop();
}

TEST(Recovery, SimultaneousNonAdjacentFailures) {
  // f=1 tolerates one failure per replication group; failing positions 0
  // and 2 of a 4-chain touches disjoint groups and must recover.
  ChainRuntime chain(monitor_chain(4));
  chain.start();
  Orchestrator orch(chain);

  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 30'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  pump(chain, source, sink, 800);
  source.stop();
  quiesce(chain);

  const std::uint64_t count0 = monitor_count(chain.ftc_node(0));
  const std::uint64_t count2 = monitor_count(chain.ftc_node(2));

  chain.fail_position(0);
  chain.fail_position(2);
  auto reports = orch.recover({0, 2});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].success);
  EXPECT_TRUE(reports[1].success);

  EXPECT_EQ(monitor_count(chain.ftc_node(0)), count0);
  EXPECT_EQ(monitor_count(chain.ftc_node(2)), count2);

  sink.stop();
  chain.stop();
}

TEST(Recovery, FailoverWithHigherReplicationFactor) {
  // f=2: killing TWO adjacent nodes still leaves one copy of every store.
  ChainRuntime chain(monitor_chain(4, /*f=*/2));
  chain.start();
  Orchestrator orch(chain);

  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 30'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  pump(chain, source, sink, 800);
  source.stop();
  quiesce(chain);

  const std::uint64_t count1 = monitor_count(chain.ftc_node(1));
  const std::uint64_t count2 = monitor_count(chain.ftc_node(2));

  chain.fail_position(1);
  chain.fail_position(2);
  // One batch: the fetch plans must route around BOTH dead nodes to the
  // surviving group members, and routing updates only after both recover.
  auto reports = orch.recover({1, 2});
  ASSERT_EQ(reports.size(), 2u);
  ASSERT_TRUE(reports[0].success);
  ASSERT_TRUE(reports[1].success);

  EXPECT_EQ(monitor_count(chain.ftc_node(1)), count1);
  EXPECT_EQ(monitor_count(chain.ftc_node(2)), count2);

  sink.stop();
  chain.stop();
}

TEST(Recovery, NatStateSurvivesFailover) {
  // The full NAT flow table (bidirectional mappings + port counter) must
  // survive a head failure so existing connections keep their mappings.
  ChainRuntime::Spec spec;
  spec.mode = ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.threads_per_node = 1;
  spec.cfg.pool_packets = 2048;
  spec.mbox_factories = {
      []() -> std::unique_ptr<mbox::Middlebox> {
        return std::make_unique<mbox::Monitor>(1);
      },
      []() -> std::unique_ptr<mbox::Middlebox> {
        return std::make_unique<mbox::MazuNat>();
      },
  };
  ChainRuntime chain(spec);
  chain.start();
  Orchestrator orch(chain);

  tgen::Workload w;
  w.num_flows = 24;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 30'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  pump(chain, source, sink, 600);
  source.stop();
  // Converge before reading the mappings: stragglers past the pump target
  // are still creating NAT entries, and shard-affine get() supports
  // quiesced stores only.
  quiesce(chain);

  std::vector<state::Bytes> mappings;
  for (std::size_t i = 0; i < w.num_flows; ++i) {
    auto entry = chain.ftc_node(1)->head()->store().get(w.flow(i).hash());
    ASSERT_TRUE(entry.has_value());
    mappings.push_back(*entry);
  }

  chain.fail_position(1);
  auto reports = orch.recover({1});
  ASSERT_TRUE(reports[0].success);
  quiesce(chain);

  for (std::size_t i = 0; i < w.num_flows; ++i) {
    auto entry = chain.ftc_node(1)->head()->store().get(w.flow(i).hash());
    ASSERT_TRUE(entry.has_value()) << "flow " << i << " mapping lost";
    EXPECT_TRUE(*entry == mappings[i]) << "flow " << i << " mapping changed";
  }

  sink.stop();
  chain.stop();
}

// Builds one UDP packet per flow, source ports first_port.., and injects
// them at the chain ingress.
void inject_new_flows(ChainRuntime& chain, std::uint16_t first_port,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    pkt::Packet* p = chain.pool().alloc_raw();
    ASSERT_NE(p, nullptr);
    const pkt::FlowKey flow{0x0a000001, 0x08080808,
                            static_cast<std::uint16_t>(first_port + i), 443,
                            pkt::Ipv4Header::kProtoUdp};
    pkt::PacketBuilder(*p).udp(flow, 128);
    ASSERT_TRUE(chain.ingress().send(p));
  }
}

TEST(Recovery, InFlightLogsOfFailedHeadReachReplicaBeforeFetch) {
  // The failed MazuNAT head has already sent logs for new flows that are
  // still on the 20 ms segment to its successor. Recovery fetches the head
  // store from that successor; if it did so before those logs land, they
  // would take the sequence numbers the recovered head reuses, and the
  // replica would drop the head's next logs as duplicates and diverge.
  ChainRuntime::Spec spec;
  spec.mode = ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.threads_per_node = 1;
  spec.cfg.pool_packets = 2048;
  spec.cfg.link.delay_ns = 20'000'000;
  const auto monitor = []() -> std::unique_ptr<mbox::Middlebox> {
    return std::make_unique<mbox::Monitor>(1);
  };
  spec.mbox_factories = {
      monitor,
      []() -> std::unique_ptr<mbox::Middlebox> {
        return std::make_unique<mbox::MazuNat>();
      },
      monitor,
  };
  ChainRuntime chain(spec);
  chain.start();
  OrchestratorConfig ocfg;
  ocfg.spawn_delay_ns = 0;
  Orchestrator orch(chain, ocfg);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();

  constexpr std::size_t kFlows = 64;
  inject_new_flows(chain, 1000, kFlows);
  // Fail the MazuNAT head as soon as it has processed the new flows: their
  // packets (and logs) are then on the delayed segment to position 2.
  FtcNode* old_head = chain.ftc_node(1);
  const auto deadline = rt::now_ns() + 10'000'000'000ull;
  while (old_head->stats().packets_processed < kFlows &&
         rt::now_ns() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(old_head->stats().packets_processed, kFlows);
  chain.fail_position(1);
  const auto reports = orch.recover({1});
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_TRUE(reports[0].success);

  inject_new_flows(chain, 2000, kFlows);
  quiesce(chain);

  FtcNode* head = chain.ftc_node(1);
  FtcNode* replica = chain.ftc_node(2);
  state::StateStore& head_store = head->head()->store();
  state::StateStore& replica_store = replica->applier(1)->store();
  for (const std::uint16_t first_port : {1000, 2000}) {
    for (std::size_t i = 0; i < kFlows; ++i) {
      const pkt::FlowKey flow{0x0a000001, 0x08080808,
                              static_cast<std::uint16_t>(first_port + i), 443,
                              pkt::Ipv4Header::kProtoUdp};
      const auto at_head = head_store.get(flow.hash());
      const auto at_replica = replica_store.get(flow.hash());
      ASSERT_TRUE(at_head.has_value()) << "port " << flow.src_port;
      ASSERT_TRUE(at_replica.has_value()) << "port " << flow.src_port;
      EXPECT_TRUE(*at_head == *at_replica) << "port " << flow.src_port;
    }
  }
  const auto counter = mbox::MazuNat::port_counter_key();
  EXPECT_TRUE(head_store.get(counter) == replica_store.get(counter));
  EXPECT_EQ(replica->stats().logs_duplicate, 0u);

  sink.stop();
  chain.stop();
}

TEST(Recovery, WanDelaysDominateRecoveryTime) {
  // Figure 13 setup: every server in its own cloud region, 10 ms one-way
  // inter-region delay. Initialization is bounded below by the
  // orchestrator<->replica RTT and state recovery by the replica<->source
  // RTT — WAN latency dominates, as the paper observes.
  constexpr std::uint64_t kOneWayNs = 10'000'000;
  ChainRuntime chain(monitor_chain(3));
  auto& ctrl = chain.control();
  ctrl.set_inter_region_delay(kOneWayNs);
  ctrl.set_region(net::kOrchestratorNode, 0);
  for (std::uint32_t pos = 0; pos < chain.ring_size(); ++pos) {
    chain.set_position_region(pos, pos + 1);  // One region per server.
  }
  chain.start();
  Orchestrator orch(chain);

  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 20'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  pump(chain, source, sink, 300);
  source.stop();
  // Drain in-flight packets so the pre-failure count is stable.
  (void)test::wait_until([&] { return chain.quiescent(); }, 10s);

  const std::uint64_t count1 = monitor_count(chain.ftc_node(1));
  chain.fail_position(1);
  auto reports = orch.recover({1});
  ASSERT_TRUE(reports[0].success);

  // Initialization >= kInit + kInitAck across the WAN.
  EXPECT_GE(reports[0].initialization_ns, 2 * kOneWayNs);
  // State fetch >= request + response across the WAN (sources are in the
  // neighbor regions).
  EXPECT_GE(reports[0].state_recovery_ns, 2 * kOneWayNs);
  // Initialization (measured at the orchestrator, ends when the ack
  // arrives) and state recovery (measured at the replica) OVERLAP by one
  // one-way ack flight, so total is not their sum; it must still dominate
  // each component.
  EXPECT_GE(reports[0].total_ns, reports[0].initialization_ns);
  EXPECT_GE(reports[0].total_ns, reports[0].state_recovery_ns);
  // Rerouting is negligible compared to the WAN components (paper §7.5).
  // Compare against initialization rather than an absolute bound: on a
  // loaded single-core host even local work can take milliseconds of
  // wall-clock.
  EXPECT_LT(reports[0].rerouting_ns, reports[0].initialization_ns);
  // And the state survived the WAN trip intact.
  EXPECT_EQ(monitor_count(chain.ftc_node(1)), count1);

  sink.stop();
  chain.stop();
}

TEST(Recovery, AnswersPingsDuringStateFetch) {
  // A replica fetching state still answers heartbeats: a ping lost while
  // the fetch is in flight would make the monitor suspect a live node.
  // The fetch sources sit behind a WAN delay, so the fetch is still
  // outstanding when the ping arrives.
  constexpr std::uint64_t kFetchOneWayNs = 300'000'000;
  constexpr net::NodeId kProbe = 0xfffffff0;
  ChainRuntime chain(monitor_chain(3));
  chain.start();
  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 30'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  pump(chain, source, sink, 500);
  source.stop();
  quiesce(chain);
  const std::uint64_t pre_failure_count = monitor_count(chain.ftc_node(1));

  auto& ctrl = chain.control();
  ctrl.register_node(kProbe);
  chain.fail_position(1);
  FtcNode* fresh = chain.spawn_replacement(1);
  const auto sources = chain.recovery_sources(1);
  net::Message init;
  init.type = ftc::CtrlMsg::kInit;
  init.from = kProbe;
  init.to = fresh->id();
  const auto put = [&init](std::uint32_t v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    init.payload.insert(init.payload.end(), p, p + 4);
  };
  put(static_cast<std::uint32_t>(sources.size()));
  for (const auto& [mbox, node] : sources) {
    ctrl.set_delay(fresh->id(), node, kFetchOneWayNs);
    put(mbox);
    put(node);
  }
  ctrl.send(std::move(init));
  ASSERT_TRUE(ctrl.wait_for(kProbe, ftc::CtrlMsg::kInitAck, 5'000'000'000));

  net::Message ping;
  ping.type = ftc::CtrlMsg::kPing;
  ping.from = kProbe;
  ping.to = fresh->id();
  ping.tag = 42;
  ctrl.send(std::move(ping));
  const auto pong = ctrl.wait_for(kProbe, ftc::CtrlMsg::kPong, 5'000'000'000);
  ASSERT_TRUE(pong.has_value()) << "ping lost during the state fetch";
  EXPECT_EQ(pong->tag, 42u);
  // The pong came back while the fetch was still in flight.
  EXPECT_FALSE(ctrl.wait_for(kProbe, ftc::CtrlMsg::kRecovered, 0));

  const auto done =
      ctrl.wait_for(kProbe, ftc::CtrlMsg::kRecovered, 10'000'000'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_FALSE(done->payload.empty());
  EXPECT_EQ(done->payload[0], 1);
  chain.wire_replacement(1, fresh);
  EXPECT_EQ(monitor_count(fresh), pre_failure_count);

  sink.stop();
  chain.stop();
}

// --- NACK replies and fetch blobs carry wire records ----------------------

/// u32 little-endian append, as the control payloads are built.
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 4);
}

/// Mbox-0 logs with sequence numbers first..last on @p key's partition,
/// each setting @p key to its sequence number.
std::vector<ftc::PiggybackLog> counter_logs(const state::StateStore& store,
                                            state::Key key, std::uint64_t first,
                                            std::uint64_t last) {
  std::vector<ftc::PiggybackLog> out;
  const auto p = store.partition_of(key);
  for (std::uint64_t s = first; s <= last; ++s) {
    ftc::PiggybackLog log;
    log.mbox = 0;
    log.dep.mask = 1ULL << p;
    log.dep.seq[p] = s;
    log.writes.push_back({key, state::Bytes::of<std::uint64_t>(s), false});
    out.push_back(std::move(log));
  }
  return out;
}

std::vector<std::uint8_t> records_of(const std::vector<ftc::PiggybackLog>& logs) {
  std::vector<std::uint8_t> out;
  for (const auto& log : logs) {
    const auto rec = ftc::wire_record(log);
    out.insert(out.end(), rec.begin(), rec.end());
  }
  return out;
}

TEST(Recovery, NackRepliesCarryWireRecords) {
  constexpr net::NodeId kProbe = 0xfffffff1;
  constexpr state::Key kKey = 77;
  ChainRuntime chain(monitor_chain(3));
  chain.start();
  auto& ctrl = chain.control();
  ctrl.register_node(kProbe);
  FtcNode* head = chain.ftc_node(0);
  FtcNode* replica = chain.ftc_node(1);  // Tail of mbox 0's group.
  const auto logs = counter_logs(head->head()->store(), kKey, 1, 5);
  for (const auto& log : logs) head->head()->history().record(ftc::wire_record(log));

  // The head answers a NACK from seq 2 with records 3..5, as recorded.
  ftc::MaxVector from;
  from.seq[head->head()->store().partition_of(kKey)] = 2;
  net::Message nack;
  nack.type = ftc::CtrlMsg::kNack;
  nack.from = kProbe;
  nack.to = head->id();
  put_u32(nack.payload, 0);
  const auto* f = reinterpret_cast<const std::uint8_t*>(from.seq.data());
  nack.payload.insert(nack.payload.end(), f, f + sizeof(from.seq));
  ctrl.send(std::move(nack));
  const auto reply = ctrl.wait_for(kProbe, ftc::CtrlMsg::kNackResp, 5'000'000'000);
  ASSERT_TRUE(reply.has_value());
  std::vector<std::uint8_t> expected;
  put_u32(expected, 0);
  const auto tail = records_of({logs.begin() + 2, logs.end()});
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(reply->payload, expected);

  // A replica applies a reply's records in order; a malformed reply
  // (a record cut short) applies nothing and does not take the node down.
  InOrderApplier* a = replica->applier(0);
  const auto send_reply = [&](std::vector<std::uint8_t> records) {
    net::Message resp;
    resp.type = ftc::CtrlMsg::kNackResp;
    resp.from = kProbe;
    resp.to = replica->id();
    put_u32(resp.payload, 0);
    resp.payload.insert(resp.payload.end(), records.begin(), records.end());
    ctrl.send(std::move(resp));
  };
  auto cut = records_of(counter_logs(a->store(), kKey, 1, 2));
  cut.pop_back();
  send_reply(cut);
  send_reply(records_of(logs));
  // The owner worker writes the store: read it only once the chain is
  // quiescent.
  const auto applied_all = [&] { return a->applied_count() >= 5; };
  EXPECT_TRUE(test::wait_until(applied_all, 5s))
      << "applied_all never held: applied " << a->applied_count();
  quiesce(chain);
  EXPECT_EQ(a->applied_count(), 5u);  // The cut reply applied nothing.
  const auto v = a->store().get(kKey);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as<std::uint64_t>(), 5u);
  EXPECT_EQ(replica->stats().logs_applied, 5u);
  chain.stop();
}

// A head keeps every log it emits, one no frame can carry included: its
// sequence numbers are spent, so a successor that sees the next log NACKs
// for it, and the reply must serve it.
TEST(Recovery, NackServesALogLargerThanAFrame) {
  constexpr net::NodeId kProbe = 0xfffffff2;
  constexpr state::Key kKey = 78;
  const auto spec = monitor_chain(3);
  ChainRuntime chain(spec);
  chain.start();
  auto& ctrl = chain.control();
  ctrl.register_node(kProbe);
  FtcNode* head = chain.ftc_node(0);
  ftc::HeadStore* store = head->head();
  const auto commit = [&](std::size_t value_size) {
    const std::vector<std::uint8_t> value(value_size, 0xab);
    auto record = state::run_transaction(store->txn_ctx(), [&](state::Txn& t) {
      t.write(kKey, state::Bytes(value.data(), value.size()));
    });
    return ftc::record_log(*store, record);
  };
  const ftc::PiggybackLog big = commit(4096);
  const ftc::PiggybackLog small = commit(8);
  {
    pkt::Packet frame;
    auto v = ftc::PiggybackView::create(frame, spec.cfg.num_partitions);
    ASSERT_TRUE(v.ok());
    EXPECT_FALSE(v.append_log(big)) << "the first log must outgrow a frame";
    EXPECT_TRUE(v.append_log(small));
  }

  // A successor that holds the second log NACKs from seq 0: the head
  // answers with both, as the history recorded them.
  net::Message nack;
  nack.type = ftc::CtrlMsg::kNack;
  nack.from = kProbe;
  nack.to = head->id();
  put_u32(nack.payload, 0);
  const ftc::MaxVector from;
  const auto* f = reinterpret_cast<const std::uint8_t*>(from.seq.data());
  nack.payload.insert(nack.payload.end(), f, f + sizeof(from.seq));
  ctrl.send(std::move(nack));
  const auto reply = ctrl.wait_for(kProbe, ftc::CtrlMsg::kNackResp, 5'000'000'000);
  ASSERT_TRUE(reply.has_value());
  std::vector<std::uint8_t> expected;
  put_u32(expected, 0);
  const auto records = records_of({big, small});
  expected.insert(expected.end(), records.begin(), records.end());
  EXPECT_EQ(reply->payload, expected);

  // The reply fills the replica's gap.
  FtcNode* replica = chain.ftc_node(1);
  InOrderApplier* a = replica->applier(0);
  net::Message resp = *reply;
  resp.from = kProbe;
  resp.to = replica->id();
  ctrl.send(std::move(resp));
  const auto applied_both = [&] { return a->applied_count() >= 2; };
  EXPECT_TRUE(test::wait_until(applied_both, 5s))
      << "applied_both never held: applied " << a->applied_count();
  quiesce(chain);
  EXPECT_EQ(a->applied_count(), 2u);
  const auto v = a->store().get(kKey);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->size(), 8u);
  chain.stop();
}

TEST(Recovery, FetchBlobCarriesHistoryAsWireRecords) {
  ftc::ChainConfig cfg;
  cfg.history_capacity = 64;
  ftc::SoloApplier src(0, cfg);
  constexpr state::Key kKey = 5;
  for (const auto& log : counter_logs(src.store(), kKey, 1, 9)) {
    ASSERT_EQ(ftc::offer(src, log), InOrderApplier::Offer::kApplied);
  }
  std::vector<std::uint8_t> blob;
  src.serialize(blob);

  // Applier to applier, and applier to a head (paper §5.2): the history
  // arrives record for record.
  const auto kept = ftc::logs_after(src.history(), ftc::MaxVector{});
  ASSERT_EQ(kept.size(), 9u);
  ftc::SoloApplier dst(0, cfg);
  ASSERT_TRUE(dst.deserialize(blob));
  EXPECT_EQ(ftc::logs_after(dst.history(), ftc::MaxVector{}), kept);
  ftc::HeadStore head(0, cfg);
  ASSERT_TRUE(head.deserialize(blob));
  EXPECT_EQ(ftc::logs_after(head.history(), ftc::MaxVector{}), kept);

  // Every truncation fails, a cut on a record boundary included.
  for (std::size_t len = 0; len < blob.size(); ++len) {
    ftc::SoloApplier cut(0, cfg);
    EXPECT_FALSE(cut.deserialize({blob.data(), len})) << "length " << len;
  }
  // So does a record whose dependency mask names a partition past the
  // partition range: it would desynchronize the record's length.
  auto corrupt = blob;
  const std::size_t first_record = corrupt.size() - 9 * ftc::wire_record(kept[0]).size();
  corrupt[first_record + 4 + 7] = 0x80;  // Mask bit 63.
  ftc::SoloApplier bad(0, cfg);
  EXPECT_FALSE(bad.deserialize(corrupt));
}

TEST(Recovery, CorruptFetchBlobFailsTheFetch) {
  // The probe stands in for every fetch source: it relays each request to
  // the real source and hands the replacement the reply with a truncated
  // record appended to its history section. The fetch must fail, not
  // crash or restore a partial history.
  constexpr net::NodeId kProbe = 0xfffffff2;
  ChainRuntime chain(monitor_chain(3));
  chain.start();
  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 30'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  pump(chain, source, sink, 500);
  source.stop();
  quiesce(chain);

  auto& ctrl = chain.control();
  ctrl.register_node(kProbe);
  chain.fail_position(1);
  FtcNode* fresh = chain.spawn_replacement(1);
  const auto sources = chain.recovery_sources(1);
  net::Message init;
  init.type = ftc::CtrlMsg::kInit;
  init.from = kProbe;
  init.to = fresh->id();
  put_u32(init.payload, static_cast<std::uint32_t>(sources.size()));
  for (const auto& [mbox, node] : sources) {
    put_u32(init.payload, mbox);
    put_u32(init.payload, kProbe);
  }
  ctrl.send(std::move(init));
  ASSERT_TRUE(ctrl.wait_for(kProbe, ftc::CtrlMsg::kInitAck, 5'000'000'000));

  const auto truncated = [] {
    ftc::PiggybackLog log;
    log.dep.mask = 1;
    log.dep.seq[0] = 1;
    auto rec = ftc::wire_record(log);
    rec.resize(7);
    return rec;
  }();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    auto req = ctrl.wait_for(kProbe, ftc::CtrlMsg::kFetchReq, 5'000'000'000);
    ASSERT_TRUE(req.has_value());
    std::uint32_t mbox = 0;
    std::memcpy(&mbox, req->payload.data(), 4);
    net::NodeId real = 0;
    for (const auto& [m, node] : sources) {
      if (m == mbox) real = node;
    }
    req->from = kProbe;
    req->to = real;
    ctrl.send(std::move(*req));
    auto resp = ctrl.wait_for(kProbe, ftc::CtrlMsg::kFetchResp, 5'000'000'000);
    ASSERT_TRUE(resp.has_value());
    resp->payload.insert(resp->payload.end(), truncated.begin(), truncated.end());
    resp->from = kProbe;
    resp->to = fresh->id();
    ctrl.send(std::move(*resp));
  }
  const auto done = ctrl.wait_for(kProbe, ftc::CtrlMsg::kRecovered, 10'000'000'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_FALSE(done->payload.empty());
  EXPECT_EQ(done->payload[0], 0) << "a corrupt fetch blob restored state";

  sink.stop();
  chain.stop();
}

TEST(Recovery, TraceCapturesParkNackUnparkSequence) {
  // Lossy links make replicas park packets on missing log dependencies,
  // NACK the holder after the retransmit timeout, and unpark once the
  // response fills the gap. The span records must show that sequence in
  // order on at least one node.
  auto spec = monitor_chain(3);
  spec.cfg.link.loss = 0.02;
  spec.cfg.link.delay_ns = 1000;  // Force the timed (lossy) path.
  spec.cfg.retransmit_timeout_ns = 2'000'000;
  spec.cfg.nack_min_gap_ns = 500'000;
  ChainRuntime chain(spec);
  chain.start();
  obs::SpanCollector spans(&chain.registry());

  // Park and unpark are recorded on sampled packets. Every packet leaves
  // a couple dozen records (generator, links, hop stages, buffer, sink),
  // so the rate stays low enough that the collector's store cannot fill
  // within the wait; 2% loss still drops hundreds of packets a second.
  tgen::Workload w;
  w.trace_sample = 1;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 2'000.0,
                             &spans);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();

  const auto some_node_traced_park_nack_unpark = [&] {
    const auto records = spans.snapshot();
    for (std::uint32_t pos = 0; pos < chain.ring_size(); ++pos) {
      if (test::contains_sequence(
              records, obs::span_site_node(chain.ftc_node(pos)->id()),
              {obs::SpanKind::kPark, obs::SpanKind::kNackSent,
               obs::SpanKind::kUnpark})) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(test::wait_until(some_node_traced_park_nack_unpark, 15s, 100ms))
      << "no node traced park -> nack_sent -> unpark (" << spans.collected()
      << " records collected, " << spans.dropped() << " dropped)";

  source.stop();
  sink.stop();
  chain.stop();
  // Nothing failed: NACKs ride protocol trace ids, which never open a
  // recovery timeline.
  EXPECT_TRUE(obs::recovery_timelines(spans.snapshot()).empty());
}

TEST(Recovery, TraceAndMetricsCaptureRecoveryPhases) {
  ChainRuntime chain(monitor_chain(3));
  chain.start();
  obs::SpanCollector spans(&chain.registry());
  Orchestrator orch(chain);

  tgen::Workload w;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 30'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  pump(chain, source, sink, 500);
  source.stop();

  const std::uint32_t old_site = obs::span_site_node(chain.ftc_node(1)->id());
  chain.fail_position(1);

  // No early return from here on: the chain must stop before `spans` goes
  // away, because its threads reach the collector through the registry.
  const auto reports = orch.recover({1});
  EXPECT_EQ(reports.size(), 1u);
  EXPECT_TRUE(!reports.empty() && reports[0].success);

  const auto records = spans.snapshot();
  EXPECT_TRUE(
      test::contains_sequence(records, old_site, {obs::SpanKind::kFail}));

  // The replacement recorded its recovery phases in protocol order.
  const std::uint32_t new_site = obs::span_site_node(chain.ftc_node(1)->id());
  EXPECT_TRUE(test::contains_sequence(
      records, new_site,
      {obs::SpanKind::kRecoveryInit, obs::SpanKind::kFetchStart,
       obs::SpanKind::kFetchDone, obs::SpanKind::kRecovered}));

  // The orchestrator's spans and metrics agree.
  EXPECT_TRUE(test::contains_sequence(
      records, obs::kSpanSiteOrch,
      {obs::SpanKind::kSpawn, obs::SpanKind::kInitAck,
       obs::SpanKind::kReroute}));
  auto& registry = chain.registry();
  EXPECT_GE(registry.counter("orch.recoveries", {{"node", "orch"}}).value(),
            1u);
  EXPECT_GE(registry.timer("orch.recovery_total_ns").snapshot().count(), 1u);

  // Fig 13's fetch split: one serialize on a source and one deserialize on
  // the replacement per fetched store, inside the one fetch.
  const auto fetched = static_cast<std::uint64_t>(
      std::count_if(records.begin(), records.end(), [&](const auto& r) {
        return r.site == new_site && r.kind == obs::SpanKind::kFetchDone;
      }));
  EXPECT_GE(fetched, 1u);
  EXPECT_EQ(registry.timer("node.recovery_fetch_ns").snapshot().count(), 1u);
  EXPECT_EQ(registry.timer("node.fetch_serialize_ns").snapshot().count(),
            fetched);
  EXPECT_EQ(registry.timer("node.fetch_deserialize_ns").snapshot().count(),
            fetched);
  // And one page-fault count for each of them.
  EXPECT_EQ(registry.timer("node.fetch_serialize_faults").snapshot().count(),
            fetched);
  EXPECT_EQ(registry.timer("node.fetch_deserialize_faults").snapshot().count(),
            fetched);

  sink.stop();
  chain.stop();
}

}  // namespace
}  // namespace sfc::orch
