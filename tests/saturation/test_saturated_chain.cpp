// Chains under load against the orchestrator's default heartbeat timings:
// each node's data worker 0 also answers the heartbeats, so a worker that
// is busy, or blocked on a full downstream port, must still pong in time.
//
// These tests keep the cores of a small host busy for seconds, which
// would stretch the wall-clock samples of timing tests running beside
// them, and a loaded host would in turn starve the pongs they wait for.
// They have an executable of their own, which ctest runs alone
// (RUN_SERIAL).
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "core/chain.hpp"
#include "mbox/monitor.hpp"
#include "orch/orchestrator.hpp"
#include "packet/packet_io.hpp"
#include "runtime/clock.hpp"
#include "tgen/traffic.hpp"
#include "wait_until.hpp"

namespace sfc::orch {
namespace {

using namespace std::chrono_literals;

ftc::ChainRuntime::Spec monitor_chain() {
  ftc::ChainRuntime::Spec spec;
  spec.mode = ftc::ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.threads_per_node = 1;
  spec.cfg.pool_packets = 2048;
  for (int i = 0; i < 3; ++i) {
    spec.mbox_factories.push_back([]() -> std::unique_ptr<mbox::Middlebox> {
      return std::make_unique<mbox::Monitor>(1);
    });
  }
  return spec;
}

TEST(SaturatedChain, HeartbeatsKeepEveryNodeAliveUnderClosedLoop) {
  // A closed loop keeps a full window of packets in a Ch-3 of Monitors for
  // about 3 s, against the monitor's default heartbeat and timeout.
  constexpr std::uint64_t kWindow = 512;
  constexpr std::uint64_t kRunNs = 3'000'000'000;
  ftc::ChainRuntime chain(monitor_chain());
  chain.start();
  Orchestrator orch(chain);
  orch.start();
  auto& pool = chain.pool();
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  pkt::Packet* rx[64];
  const auto drain_egress = [&] {
    const std::size_t n = chain.egress().poll_burst(rx, 64);
    for (std::size_t i = 0; i < n; ++i) pool.free_raw(rx[i]);
    received += n;
  };
  const std::uint64_t end = rt::now_ns() + kRunNs;
  while (rt::now_ns() < end) {
    while (sent - received < kWindow) {
      pkt::Packet* p = pool.alloc_raw();
      if (p == nullptr) break;
      pkt::PacketBuilder(*p).udp(
          pkt::FlowKey{1, 2, static_cast<std::uint16_t>(sent), 4,
                       pkt::Ipv4Header::kProtoUdp},
          128);
      p->anno().packet_id = sent;
      if (!chain.ingress().send(p)) {
        pool.free_raw(p);
        break;
      }
      ++sent;
    }
    drain_egress();
  }
  EXPECT_EQ(orch.failures_detected(), 0u);
  orch.stop();
  // Drain what is still in flight, then the chain holds no work.
  const auto q = test::wait_until(
      [&] {
        drain_egress();
        return chain.quiescent();
      },
      15s);
  EXPECT_TRUE(q) << q.to_string();
  EXPECT_GT(received, kWindow) << "the loop never closed";
  chain.stop();
}

class SaturatedChainFailover : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SaturatedChainFailover, BlockedPredecessorAnswersPingsWhileItsSuccessorIsDown) {
  // Over reliable channels, a failed node stops acknowledging: its
  // predecessor's send window fills within milliseconds, and that node's
  // worker waits on the full port until the replacement polls it, which
  // is at least the failure timeout away. It must answer pings meanwhile,
  // or the monitor declares it dead in the same round as the failed node
  // and replaces two adjacent positions, more than f = 1 tolerates.
  auto spec = monitor_chain();
  spec.cfg.transport = ftc::TransportMode::kReliable;
  ftc::ChainRuntime chain(spec);
  chain.start();
  Orchestrator orch(chain);
  orch.start();
  tgen::TrafficSource source(chain.pool(), chain.ingress(), tgen::Workload{},
                             50'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  ASSERT_TRUE(test::wait_until(
      [&] { return sink.packets_received() >= 5000; }, 20s));

  const std::uint32_t pos = GetParam();
  const auto pred_id = chain.ftc_node((pos + 2) % 3)->id();
  const auto failed_id = chain.ftc_node(pos)->id();
  const auto succ_id = chain.ftc_node((pos + 1) % 3)->id();
  chain.fail_position(pos);
  EXPECT_TRUE(test::wait_until(
      [&] {
        return chain.ftc_node(pos)->id() != failed_id &&
               !chain.ftc_node(pos)->has_failed() && !orch.reports().empty();
      },
      15s, 5ms))
      << "the monitor never swapped in a replacement for the failed node";
  // Traffic flows through the replacement, and no second detection comes
  // in the timeout after it.
  const std::uint64_t before = sink.packets_received();
  EXPECT_TRUE(test::wait_until(
      [&] { return sink.packets_received() >= before + 5000; }, 20s));
  std::this_thread::sleep_for(300ms);
  source.stop();
  EXPECT_EQ(orch.failures_detected(), 1u);
  ASSERT_EQ(orch.reports().size(), 1u);
  EXPECT_EQ(orch.reports()[0].position, pos);
  EXPECT_TRUE(orch.reports()[0].success);
  EXPECT_EQ(chain.ftc_node((pos + 2) % 3)->id(), pred_id)
      << "the predecessor was replaced";
  EXPECT_EQ(chain.ftc_node((pos + 1) % 3)->id(), succ_id)
      << "the successor was replaced";
  orch.stop();
  sink.stop();
  chain.stop();
}

INSTANTIATE_TEST_SUITE_P(EveryPosition, SaturatedChainFailover,
                         ::testing::Values(0u, 1u, 2u));

}  // namespace
}  // namespace sfc::orch
