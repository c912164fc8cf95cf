// Tests for the hot-path budget profiler (obs/prof): slot registration
// and report math, burst stage marks and the per-burst cost median,
// reports racing slot registration, the single-branch disabled path,
// quiet-mode assertions (clean runs stay quiet; injected allocation
// failures and contended partition locks fire), per-server slots with
// stage-sum/wall-clock reconciliation on live NF/FTC/FTMB chains, the
// registry export, and the per-worker span ring health gauges.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/chain.hpp"
#include "mbox/monitor.hpp"
#include "obs/export.hpp"
#include "obs/prof.hpp"
#include "obs/span.hpp"
#include "packet/packet_pool.hpp"
#include "runtime/clock.hpp"
#include "state/partition_lock.hpp"
#include "tgen/traffic.hpp"

namespace sfc::obs {
namespace {

// --- Naming and classification. -----------------------------------------

TEST(ProfNames, StagesAndCountersNamed) {
  for (std::size_t s = 0; s < kProfStageCount; ++s) {
    const char* name = prof_stage_name(static_cast<ProfStage>(s));
    ASSERT_NE(name, nullptr);
    EXPECT_NE(std::string_view(name), "");
  }
  for (std::size_t c = 0; c < kProfCounterCount; ++c) {
    const char* name = prof_counter_name(static_cast<ProfCounter>(c));
    ASSERT_NE(name, nullptr);
    EXPECT_NE(std::string_view(name), "");
  }
  // Primary stages lead the enum; aux stages follow.
  EXPECT_TRUE(prof_stage_primary(ProfStage::kPoll));
  EXPECT_TRUE(prof_stage_primary(ProfStage::kParkDrain));
  EXPECT_TRUE(prof_stage_primary(ProfStage::kHandoffDrain));
  EXPECT_FALSE(prof_stage_primary(ProfStage::kLinkSend));
  EXPECT_FALSE(prof_stage_primary(ProfStage::kPoolFree));
  // Plain acquisitions are bookkeeping; everything else trips quiet mode.
  EXPECT_FALSE(prof_counter_is_violation(ProfCounter::kPartitionLockAcquire));
  EXPECT_TRUE(prof_counter_is_violation(ProfCounter::kPartitionLockContended));
  EXPECT_TRUE(prof_counter_is_violation(ProfCounter::kPoolAllocFailure));
  EXPECT_TRUE(prof_counter_is_violation(ProfCounter::kPoolFreeRetry));
  EXPECT_TRUE(prof_counter_is_violation(ProfCounter::kSendRetry));
}

// --- Slot registration and report math. ---------------------------------

TEST(ProfReport, SlotAccumulatesAndReconciles) {
  HotProfiler prof;  // Not installed: exercised directly.
  ProfSlot* slot = prof.thread_slot("unit-worker");
  ASSERT_NE(slot, nullptr);
  // Idempotent per thread.
  EXPECT_EQ(prof.thread_slot("unit-worker"), slot);
  EXPECT_EQ(prof.maybe_slot(), slot);

  // 100 packets in 10 bursts: 600 cycles of process, 200 of poll, 100 in
  // the nested store-apply drill-down, 1000 cycles of busy wall.
  slot->add(ProfStage::kPoll, 200, 100);
  slot->add(ProfStage::kProcess, 600, 100);
  slot->add(ProfStage::kStoreApply, 100, 50);
  slot->packets.store(100);
  slot->bursts.store(10);
  slot->wall_cycles.store(1000);

  const BudgetReport report = prof.report();
  ASSERT_EQ(report.workers.size(), 1u);
  const BudgetWorker& w = report.workers[0];
  EXPECT_EQ(w.worker, "unit-worker");
  EXPECT_EQ(w.packets, 100u);
  EXPECT_EQ(w.bursts, 10u);
  ASSERT_EQ(w.stages.size(), kProfStageCount);
  // Primary stages divide by the worker's packet count...
  EXPECT_DOUBLE_EQ(
      w.stages[static_cast<std::size_t>(ProfStage::kProcess)].cycles_per_packet,
      6.0);
  EXPECT_DOUBLE_EQ(
      w.stages[static_cast<std::size_t>(ProfStage::kPoll)].cycles_per_packet,
      2.0);
  // ...aux stages divide by their own op count.
  EXPECT_DOUBLE_EQ(w.stages[static_cast<std::size_t>(ProfStage::kStoreApply)]
                       .cycles_per_packet,
                   2.0);
  // Reconciliation counts primary stages only: (200 + 600) / 1000.
  EXPECT_NEAR(w.reconciliation, 0.8, 1e-9);
  EXPECT_GT(report.tsc_hz, 0.0);

  // The text table names the worker and the stages.
  const std::string text = budget_to_text(report);
  EXPECT_NE(text.find("unit-worker"), std::string::npos);
  EXPECT_NE(text.find("process"), std::string::npos);
  EXPECT_NE(text.find("aggregate"), std::string::npos);

  // reset() zeroes accumulators but keeps the slot registered.
  prof.reset();
  EXPECT_EQ(prof.maybe_slot(), slot);
  EXPECT_EQ(prof.report().workers[0].packets, 0u);
}

TEST(ProfReport, MedianCostIgnoresPreemptedBursts) {
  // The slot's cost distribution uses rt::Histogram's buckets up to 2^32
  // cycles per packet.
  EXPECT_EQ(rt::Histogram::bucket_index((1ULL << 32) - 1) + 1,
            kProfCostBuckets);

  HotProfiler prof;
  ProfSlot* slot = prof.thread_slot("median-worker");
  // 1000 normal bursts of 32 packets at 100 cycles/packet, plus a few
  // bursts 1000x slower (a worker preempted mid-burst on a busy host).
  for (int i = 0; i < 1000; ++i) slot->record_cost(100, 32);
  for (int i = 0; i < 5; ++i) slot->record_cost(100'000, 32);

  const BudgetReport report = prof.report();
  ASSERT_EQ(report.workers.size(), 1u);
  const BudgetWorker& w = report.workers[0];
  EXPECT_EQ(w.cost.count(), 1005u * 32u);
  // The median stays at the normal cost (within one ~3% bucket); a mean
  // would be ~6x off.
  EXPECT_NEAR(static_cast<double>(w.cost.p50()), 100.0, 3.0);
  EXPECT_GT(w.cost.mean(), 500.0);
  EXPECT_NEAR(w.median_ns_per_packet,
              static_cast<double>(w.cost.p50()) * 1e9 / report.tsc_hz, 1e-9);
  EXPECT_EQ(report.total.cost.count(), w.cost.count());
}

TEST(ProfReport, BurstMarksTileTheWall) {
  HotProfiler prof;
  ASSERT_TRUE(install_hot_profiler(&prof));
  ProfSlot* slot = prof.thread_slot("burst-worker");
  const auto spin = [](std::uint64_t cycles) {
    const std::uint64_t end = rt::rdtsc() + cycles;
    while (rt::rdtsc() < end) {
    }
  };

  ProfBurst burst;
  burst.open();
  spin(2'000);
  burst.mark(ProfStage::kPoll);
  spin(4'000);
  burst.mark(ProfStage::kProcess);
  const std::uint64_t w0 = burst.stamp();
  spin(50'000);  // A send_blocking retry loop.
  burst.blocked(w0);
  burst.mark(ProfStage::kEgressFlush);
  burst.finish(4);

  // An empty poll records nothing.
  burst.open();
  burst.finish(0);
  uninstall_hot_profiler(&prof);

  const BudgetReport report = prof.report();
  ASSERT_EQ(report.workers.size(), 1u);
  const BudgetWorker& w = report.workers[0];
  EXPECT_EQ(w.packets, 4u);
  EXPECT_EQ(w.bursts, 1u);
  // The marks tile the burst wall exactly.
  EXPECT_DOUBLE_EQ(w.reconciliation, 1.0);
  const auto stage = [&](ProfStage s) -> const BudgetStageRow& {
    return w.stages[static_cast<std::size_t>(s)];
  };
  EXPECT_EQ(stage(ProfStage::kPoll).ops, 4u);
  EXPECT_EQ(stage(ProfStage::kViewWalk).ops, 0u);  // Never marked.
  // The retry time stays in its enclosing primary stage and shows up in
  // the auxiliary kSendBlocked row...
  EXPECT_GE(stage(ProfStage::kEgressFlush).cycles, 50'000u);
  EXPECT_GE(stage(ProfStage::kSendBlocked).cycles, 50'000u);
  EXPECT_EQ(stage(ProfStage::kSendBlocked).ops, 1u);
  // ...but not in the burst's cost sample: 4 samples of (wall - blocked)/4.
  ASSERT_EQ(w.cost.count(), 4u);
  const std::uint64_t unblocked =
      w.wall_cycles - stage(ProfStage::kSendBlocked).cycles;
  EXPECT_NEAR(static_cast<double>(w.cost.p50()),
              static_cast<double>(unblocked / 4),
              0.04 * static_cast<double>(unblocked / 4));
  EXPECT_EQ(slot->bursts.load(), 1u);
}

TEST(ProfReport, ReportWhileThreadsRegister) {
  // report() runs on a stats thread while worker threads register and
  // name their slots (a replacement node's workers start up mid-run).
  HotProfiler prof;
  std::atomic<bool> done{false};
  std::atomic<int> reports{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)prof.report();
      reports.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (reports.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  constexpr int kThreads = 16;
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back(
        [&prof, i] { prof.thread_slot("worker-" + std::to_string(i)); });
  }
  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  const BudgetReport report = prof.report();
  ASSERT_EQ(report.workers.size(), static_cast<std::size_t>(kThreads));
  for (const auto& w : report.workers) EXPECT_EQ(w.worker.rfind("worker-", 0), 0u);
}

TEST(ProfReport, AggregateSpansWorkers) {
  HotProfiler prof;
  ProfSlot* a = prof.thread_slot("a");
  a->add(ProfStage::kProcess, 300, 10);
  a->packets.store(10);
  a->wall_cycles.store(400);
  std::thread other([&prof] {
    ProfSlot* b = prof.thread_slot("b");
    b->add(ProfStage::kProcess, 100, 10);
    b->packets.store(10);
    b->wall_cycles.store(100);
  });
  other.join();

  const BudgetReport report = prof.report();
  ASSERT_EQ(report.workers.size(), 2u);
  EXPECT_EQ(report.total.packets, 20u);
  EXPECT_EQ(report.total.wall_cycles, 500u);
  EXPECT_DOUBLE_EQ(
      report.total.stages[static_cast<std::size_t>(ProfStage::kProcess)]
          .cycles_per_packet,
      20.0);
  EXPECT_NEAR(report.total.reconciliation, 0.8, 1e-9);
}

// --- Global installation gate. ------------------------------------------

TEST(ProfInstall, ExclusiveInstallAndUninstall) {
  ASSERT_EQ(hot_profiler(), nullptr);
  HotProfiler a, b;
  EXPECT_TRUE(install_hot_profiler(&a));
  EXPECT_EQ(hot_profiler(), &a);
  EXPECT_FALSE(install_hot_profiler(&b));  // Slot taken.
  EXPECT_EQ(hot_profiler(), &a);
  uninstall_hot_profiler(&b);  // Not the owner: no-op.
  EXPECT_EQ(hot_profiler(), &a);
  uninstall_hot_profiler(&a);
  EXPECT_EQ(hot_profiler(), nullptr);
  EXPECT_TRUE(install_hot_profiler(&b));
  uninstall_hot_profiler(&b);
  EXPECT_EQ(hot_profiler(), nullptr);
}

// --- Disabled path: one load + branch. ----------------------------------

TEST(ProfDisabled, GateIsCheapAndInertWhenUninstalled) {
  ASSERT_EQ(hot_profiler(), nullptr);
  EXPECT_EQ(prof_slot(), nullptr);

  // Differential cycle check: the disabled instrumentation gate (acquire
  // load + predicted branch) must stay within noise of an empty loop. The
  // bound is deliberately loose — sanitizer builds instrument the atomic
  // load — but catches a regression to the expensive path (slot
  // registration, string building: thousands of cycles per op).
  constexpr int kIters = 200'000;
  for (int i = 0; i < 1'000; ++i) prof_count(ProfCounter::kSendRetry);
  const std::uint64_t t0 = rt::rdtsc();
  for (int i = 0; i < kIters; ++i) prof_count(ProfCounter::kSendRetry);
  const std::uint64_t gate = rt::rdtsc() - t0;
  const double per_op = static_cast<double>(gate) / kIters;
  EXPECT_LT(per_op, 1'000.0) << "disabled gate costs " << per_op
                             << " cycles/op";

  // A null-slot stage timer is a no-op, not a crash.
  { ProfStageTimer timer(nullptr, ProfStage::kProcess); }
  ASSERT_EQ(hot_profiler(), nullptr);
}

// --- Quiet mode. --------------------------------------------------------

TEST(ProfQuiet, InjectedViolationFiresOnlyWhenArmed) {
  HotProfiler prof;
  ASSERT_TRUE(install_hot_profiler(&prof));
  prof.thread_slot("quiet-worker");

  // Violations before arming are counted but do not trip quiet mode.
  prof_count(ProfCounter::kPoolAllocFailure);
  EXPECT_EQ(prof.quiet_violation_count(), 0u);
  EXPECT_FALSE(prof.quiet_ok());  // Never armed yet.

  prof.arm_quiet();
  EXPECT_TRUE(prof.quiet_armed());
  // Plain acquisitions stay quiet...
  prof_count(ProfCounter::kPartitionLockAcquire);
  EXPECT_EQ(prof.quiet_violation_count(), 0u);
  EXPECT_TRUE(prof.quiet_ok());
  // ...an injected data-path allocation failure does not.
  prof_count(ProfCounter::kPoolAllocFailure);
  EXPECT_EQ(prof.quiet_violation_count(), 1u);
  EXPECT_FALSE(prof.quiet_ok());
  const auto violations = prof.violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, ProfCounter::kPoolAllocFailure);
  EXPECT_EQ(violations[0].worker, "quiet-worker");
  EXPECT_GT(violations[0].ts_ns, 0u);

  prof.disarm_quiet();
  prof_count(ProfCounter::kSendRetry);  // After the window: not a violation.
  EXPECT_EQ(prof.quiet_violation_count(), 1u);

  // reset() clears the armed/violation state for the next window.
  prof.reset();
  EXPECT_FALSE(prof.quiet_ok());
  prof.arm_quiet();
  EXPECT_TRUE(prof.quiet_ok());
  prof.disarm_quiet();
  uninstall_hot_profiler(&prof);
}

TEST(ProfQuiet, PoolExhaustionRaisesAllocFailure) {
  HotProfiler prof;
  ASSERT_TRUE(install_hot_profiler(&prof));
  prof.thread_slot("pool-worker");
  prof.arm_quiet();

  pkt::PacketPool pool(8);
  EXPECT_EQ(pool.alloc_failures(), 0u);
  std::vector<pkt::Packet*> held;
  // Drain the pool dry, then one more: the failed alloc is the violation.
  for (int i = 0; i < 64; ++i) {
    pkt::Packet* p = pool.alloc_raw();
    if (p == nullptr) break;
    held.push_back(p);
  }
  EXPECT_EQ(pool.alloc_raw(), nullptr);
  EXPECT_GT(pool.alloc_failures(), 0u);
  EXPECT_FALSE(prof.quiet_ok());
  bool saw_alloc_failure = false;
  for (const auto& v : prof.violations()) {
    saw_alloc_failure |= v.kind == ProfCounter::kPoolAllocFailure;
  }
  EXPECT_TRUE(saw_alloc_failure);
  for (pkt::Packet* p : held) pool.free_raw(p);

  prof.disarm_quiet();
  uninstall_hot_profiler(&prof);
}

TEST(ProfQuiet, ContendedPartitionLockViolates) {
  HotProfiler prof;
  ASSERT_TRUE(install_hot_profiler(&prof));
  ProfSlot* slot = prof.thread_slot("lock-worker");
  prof.arm_quiet();

  state::PartitionLock lock;
  std::atomic<bool> held{false};
  std::thread owner([&] {
    state::TxnSlot other;
    ASSERT_TRUE(lock.lock(&other));
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    lock.unlock();
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  // Applier-style acquisition against a live owner: succeeds after the
  // owner releases, and counts as contended.
  state::TxnSlot self;
  lock.lock_apply(&self);
  lock.unlock();
  owner.join();

  const auto acquire =
      static_cast<std::size_t>(ProfCounter::kPartitionLockAcquire);
  const auto contended =
      static_cast<std::size_t>(ProfCounter::kPartitionLockContended);
  EXPECT_GE(slot->counters[acquire].load(), 1u);
  EXPECT_GE(slot->counters[contended].load(), 1u);
  EXPECT_FALSE(prof.quiet_ok());
  bool saw_contended = false;
  for (const auto& v : prof.violations()) {
    saw_contended |= v.kind == ProfCounter::kPartitionLockContended;
  }
  EXPECT_TRUE(saw_contended);

  prof.disarm_quiet();
  uninstall_hot_profiler(&prof);
}

TEST(ProfQuiet, UncontendedPartitionLockStaysQuiet) {
  HotProfiler prof;
  ASSERT_TRUE(install_hot_profiler(&prof));
  ProfSlot* slot = prof.thread_slot("solo-lock-worker");
  prof.arm_quiet();

  state::PartitionLock lock;
  state::TxnSlot self;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(lock.lock(&self));
    lock.unlock();
  }
  const auto acquire =
      static_cast<std::size_t>(ProfCounter::kPartitionLockAcquire);
  EXPECT_EQ(slot->counters[acquire].load(), 100u);
  EXPECT_TRUE(prof.quiet_ok());

  prof.disarm_quiet();
  uninstall_hot_profiler(&prof);
}

// --- Live chain: reconciliation and clean quiet runs. -------------------

// Paced, sustainable load through a 2-middlebox chain with the budget
// profiler on and quiet mode armed at the warmup boundary. A clean steady
// run must (a) give every server of every position a profiled slot whose
// stage marks reconcile with its busy wall and whose cost median is
// positive (the pipeline-throughput metric reads those medians), and
// (b) raise no quiet violations — for every chain mode, and for FTC at
// burst 32 and at burst 1.
void run_budget_chain(ftc::ChainMode mode, std::size_t burst) {
  ftc::ChainRuntime::Spec spec;
  spec.mode = mode;
  spec.cfg.f = 1;
  spec.cfg.burst_size = burst;
  spec.cfg.profile = true;
  spec.cfg.quiet_assert = true;
  for (int i = 0; i < 2; ++i) {
    spec.mbox_factories.push_back(
        [] { return std::unique_ptr<mbox::Middlebox>(new mbox::Monitor(1)); });
  }
  ftc::ChainRuntime chain(spec);
  HotProfiler* prof = chain.profiler();
  ASSERT_NE(prof, nullptr);
  ASSERT_EQ(hot_profiler(), prof);

  chain.start();
  tgen::Workload w;
  w.num_flows = 32;
  w.burst = burst;
  const auto result = tgen::run_load(
      chain.pool(), chain.ingress(), chain.egress(), w,
      /*rate_pps=*/10'000.0, /*duration_s=*/0.4, /*warmup_s=*/0.1, nullptr,
      [prof] {
        prof->reset();
        prof->arm_quiet();
      });
  prof->disarm_quiet();
  chain.stop();
  ASSERT_GT(result.received, 0u);

  const BudgetReport report = prof->report();
  EXPECT_GT(report.total.packets, 0u);
  EXPECT_GT(report.total.wall_cycles, 0u);

  // Stage sums reconcile against busy wall time. The chained stage marks
  // tile the burst loop, so the bound holds with margin on a quiet
  // machine; the floor here is loose because tier-1 runs share cores with
  // parallel test binaries (and sanitizers dilate untimed glue).
  EXPECT_GE(report.total.reconciliation, 0.5);
  EXPECT_LE(report.total.reconciliation, 1.25);

  // Every server of every ring position produced a labeled row.
  std::vector<std::string> servers;
  for (std::uint32_t pos = 0; pos < chain.ring_size(); ++pos) {
    const std::string p = std::to_string(pos);
    switch (mode) {
      case ftc::ChainMode::kNf:
        servers.push_back("nf-node-" + p);
        break;
      case ftc::ChainMode::kFtc:
        servers.push_back("ftc-node-" + p);
        break;
      case ftc::ChainMode::kFtmb:
      case ftc::ChainMode::kFtmbSnapshot:
        servers.push_back("ftmb-master-" + p);
        servers.push_back("ftmb-log-" + p);
        break;
    }
  }
  for (const auto& server : servers) {
    const std::string name = server + "-t0";
    const BudgetWorker* worker = nullptr;
    for (const auto& w : report.workers) {
      if (w.worker == name) worker = &w;
    }
    ASSERT_NE(worker, nullptr) << "no profiler slot for " << name;
    EXPECT_GT(worker->packets, 0u) << name;
    EXPECT_GE(worker->reconciliation, 0.9) << name;
    EXPECT_GT(worker->median_ns_per_packet, 0.0) << name;
    double primary_ns = 0;
    for (const auto& row : worker->stages) {
      if (prof_stage_primary(row.stage)) primary_ns += row.ns_per_packet;
    }
    EXPECT_GT(primary_ns, 0.0) << name;
    if (mode == ftc::ChainMode::kFtc) {
      // One piggyback pipeline at every hop, the chain ingress included:
      // each position bills the per-packet stages of the same table.
      for (const ProfStage stage :
           {ProfStage::kViewWalk, ProfStage::kLogApply, ProfStage::kTailCommit,
            ProfStage::kProcess, ProfStage::kAppend}) {
        const auto& row = worker->stages[static_cast<std::size_t>(stage)];
        EXPECT_GT(row.ns_per_packet, 0.0)
            << name << " stage " << prof_stage_name(stage);
      }
    }
  }

  // A paced steady-state run is quiet: no allocation failures, contended
  // locks, free retries, or send retries after warmup.
  EXPECT_TRUE(prof->quiet_ok())
      << "violations=" << prof->quiet_violation_count()
      << " mode=" << ftc::to_string(mode) << " burst=" << burst;
}

TEST(ProfChain, ReconciliationAndQuietAtBurst32) {
  run_budget_chain(ftc::ChainMode::kFtc, 32);
}

TEST(ProfChain, ReconciliationAndQuietAtBurst1) {
  run_budget_chain(ftc::ChainMode::kFtc, 1);
}

TEST(ProfChain, ReconciliationAndQuietNf) {
  run_budget_chain(ftc::ChainMode::kNf, 32);
}

TEST(ProfChain, ReconciliationAndQuietFtmb) {
  run_budget_chain(ftc::ChainMode::kFtmb, 32);
}

TEST(ProfChain, ReconciliationAndQuietFtmbSnapshot) {
  run_budget_chain(ftc::ChainMode::kFtmbSnapshot, 32);
}

TEST(ProfChain, BudgetExportedThroughRegistry) {
  ftc::ChainRuntime::Spec spec;
  spec.mode = ftc::ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.profile = true;
  spec.mbox_factories.push_back(
      [] { return std::unique_ptr<mbox::Middlebox>(new mbox::Monitor(1)); });
  ftc::ChainRuntime chain(spec);
  chain.start();
  tgen::Workload w;
  w.num_flows = 16;
  (void)tgen::run_load(chain.pool(), chain.ingress(), chain.egress(), w,
                       /*rate_pps=*/10'000.0, /*duration_s=*/0.2,
                       /*warmup_s=*/0.05);
  chain.stop();

  const std::string text = to_text(chain.registry());
  EXPECT_NE(text.find("budget.ns_per_packet"), std::string::npos);
  EXPECT_NE(text.find("budget.cycles_per_packet"), std::string::npos);
  EXPECT_NE(text.find("budget.reconciliation"), std::string::npos);
  EXPECT_NE(text.find("budget.tsc_hz"), std::string::npos);
  EXPECT_NE(text.find("ftc-node-0-t0"), std::string::npos);
}

// --- Span ring health gauges (per-worker drop/high-water). --------------

TEST(SpanRingHealth, DropsAndHighWaterLabeledByWorker) {
  Registry registry;
  SpanCollectorConfig cfg;
  cfg.thread_buffer_capacity = 4;  // Tiny ring: force overflow.
  SpanCollector collector(&registry, cfg);

  // Flood far past the ring capacity faster than the drainer can empty it.
  for (int i = 0; i < 100'000; ++i) {
    collector.record(SpanRecord{1, rt::now_ns(),
                                static_cast<std::uint64_t>(i),
                                span_site_node(0), SpanKind::kProcess});
  }
  EXPECT_GT(collector.dropped(), 0u);

  // The ring's gauges carry the owning worker's label (non-worker threads
  // fall back to "main").
  const std::string text = to_text(registry);
  EXPECT_NE(text.find("span.ring_dropped"), std::string::npos);
  EXPECT_NE(text.find("span.ring_high_water"), std::string::npos);
  EXPECT_NE(text.find("main"), std::string::npos);

  // clear() resets the per-ring health counters with the records.
  collector.clear();
  EXPECT_EQ(collector.dropped(), 0u);
}

}  // namespace
}  // namespace sfc::obs
