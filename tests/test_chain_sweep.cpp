// Property sweep across the chain configuration space: every mode x
// length x fault-tolerance combination must deliver traffic end-to-end,
// and FTC must additionally replicate every middlebox's state f+1 times
// and quiesce cleanly.
#include <gtest/gtest.h>

#include <thread>

#include "core/chain.hpp"
#include "mbox/monitor.hpp"
#include "tgen/traffic.hpp"
#include "wait_until.hpp"

namespace sfc::ftc {
namespace {

struct SweepParam {
  SweepParam(ChainMode mode, std::size_t length, std::uint32_t f,
             std::size_t threads, std::size_t burst = 32)
      : mode(mode), length(length), f(f), threads(threads), burst(burst) {}

  // gtest names each case after the param's raw bytes, so the padding is
  // spelled out as zeroed members: left implicit, it held whatever the
  // stack did and the case names changed from build to build.
  ChainMode mode;
  std::uint8_t pad_mode[7]{};
  std::size_t length;
  std::uint32_t f;
  std::uint32_t pad_f{0};
  std::size_t threads;
  std::size_t burst;  ///< Data-path burst size (1 = per-packet).
};
static_assert(sizeof(SweepParam) == 40, "no implicit padding");

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string mode;
  switch (info.param.mode) {
    case ChainMode::kNf: mode = "Nf"; break;
    case ChainMode::kFtc: mode = "Ftc"; break;
    case ChainMode::kFtmb: mode = "Ftmb"; break;
    case ChainMode::kFtmbSnapshot: mode = "FtmbSnap"; break;
  }
  return mode + "_len" + std::to_string(info.param.length) + "_f" +
         std::to_string(info.param.f) + "_t" +
         std::to_string(info.param.threads) + "_b" +
         std::to_string(info.param.burst);
}

class ChainSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ChainSweep, DeliversAndReplicates) {
  const auto param = GetParam();
  ChainRuntime::Spec spec;
  spec.mode = param.mode;
  spec.cfg.f = param.f;
  spec.cfg.threads_per_node = param.threads;
  spec.cfg.pool_packets = 2048;
  spec.cfg.burst_size = param.burst;
  for (std::size_t i = 0; i < param.length; ++i) {
    spec.mbox_factories.push_back([]() -> std::unique_ptr<mbox::Middlebox> {
      return std::make_unique<mbox::Monitor>(1);
    });
  }
  ChainRuntime chain(spec);
  chain.start();

  tgen::Workload w;
  w.burst = param.burst;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 40'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();

  constexpr std::uint64_t kPackets = 500;
  const auto deadline = rt::now_ns() + 20'000'000'000ull;
  while (sink.packets_received() < kPackets && rt::now_ns() < deadline) {
    std::this_thread::yield();
  }
  source.stop();
  ASSERT_GE(sink.packets_received(), kPackets)
      << "no end-to-end delivery for this configuration";

  if (param.mode == ChainMode::kFtc) {
    // Quiesce, then check the replication-factor invariant: each
    // middlebox's counters present and equal on ALL f successors.
    const auto q = test::wait_until([&] { return chain.quiescent(); },
                                    std::chrono::seconds(10));
    ASSERT_TRUE(q) << "chain failed to quiesce: " << q.to_string();

    for (std::uint32_t m = 0; m < param.length; ++m) {
      auto* head_node = chain.ftc_node(m);
      auto* monitor = dynamic_cast<mbox::Monitor*>(head_node->middlebox());
      std::uint64_t head_total = 0;
      for (std::uint32_t t = 0; t < param.threads; ++t) {
        if (auto v = head_node->head()->store().get(monitor->counter_key(t))) {
          head_total += v->as<std::uint64_t>();
        }
      }
      EXPECT_GE(head_total, kPackets) << "mbox " << m;

      for (std::uint32_t k = 1; k <= param.f; ++k) {
        auto* replica_node =
            chain.ftc_node((m + k) % chain.ring_size());
        InOrderApplier* applier = replica_node->applier(m);
        ASSERT_NE(applier, nullptr) << "mbox " << m << " successor " << k;
        std::uint64_t replica_total = 0;
        for (std::uint32_t t = 0; t < param.threads; ++t) {
          if (auto v = applier->store().get(monitor->counter_key(t))) {
            replica_total += v->as<std::uint64_t>();
          }
        }
        EXPECT_EQ(replica_total, head_total)
            << "mbox " << m << " lagging at successor " << k;
      }
    }
  }

  sink.stop();
  chain.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ChainSweep,
    ::testing::Values(
        // Baselines across lengths.
        SweepParam{ChainMode::kNf, 1, 0, 1}, SweepParam{ChainMode::kNf, 5, 0, 2},
        SweepParam{ChainMode::kFtmb, 1, 0, 1},
        SweepParam{ChainMode::kFtmb, 4, 0, 1},
        SweepParam{ChainMode::kFtmbSnapshot, 2, 0, 1},
        // FTC: length x f x threads coverage, including ring extension
        // (length < f+1) and the maximum f for each length.
        SweepParam{ChainMode::kFtc, 1, 1, 1}, SweepParam{ChainMode::kFtc, 1, 2, 1},
        SweepParam{ChainMode::kFtc, 2, 1, 1}, SweepParam{ChainMode::kFtc, 2, 1, 2},
        SweepParam{ChainMode::kFtc, 3, 2, 1}, SweepParam{ChainMode::kFtc, 4, 1, 1},
        SweepParam{ChainMode::kFtc, 4, 3, 1}, SweepParam{ChainMode::kFtc, 5, 1, 2},
        SweepParam{ChainMode::kFtc, 5, 4, 1},
        // Burst-size coverage: burst 1 must behave exactly like the
        // pre-batching per-packet path (the default above is 32).
        SweepParam{ChainMode::kNf, 3, 0, 1, 1},
        SweepParam{ChainMode::kFtc, 3, 1, 1, 1},
        SweepParam{ChainMode::kFtc, 2, 1, 2, 1},
        SweepParam{ChainMode::kFtc, 3, 2, 1, 128}),
    param_name);

}  // namespace
}  // namespace sfc::ftc
