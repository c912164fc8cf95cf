// Hot-path budget profiler and steady-state "quiet mode" assertions.
//
// The paper's Table 2 attributes FTC's per-packet cost to a handful of
// stages; this module does the same attribution *live*: every worker
// thread owns a cache-line-padded slot of per-stage TSC accumulators, and
// the data-path code marks its burst-loop stages with ProfBurst when a
// profiler is installed. It is the repository's only cycle instrument: the
// benches' pipeline-throughput metric reads each slot's per-burst cost
// distribution, and the budget gate reads the stage table. Installation is
// process-global and run-time gated — every instrumentation point costs
// one relaxed/acquire load plus one predictable branch when no profiler is
// installed (the same idiom as the SpanSampler's off-path check), and the
// profiler itself is always compiled in.
//
// Quiet mode turns steady-state invariants into hard assertions: once
// armed (after warmup), any pool-allocation failure, pool free-retry,
// contended partition-lock acquisition, or blocking-send retry is
// recorded as a violation. Callers
// (sfc_cli --quiet-assert, the budget-gate bench) dump the span flight
// recorder and fail the run when violations exist.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/mutex.hpp"
#include "runtime/clock.hpp"
#include "runtime/common.hpp"
#include "runtime/histogram.hpp"

namespace sfc::obs {

class Registry;  // registry export lives in prof.cpp; keep this header light

// ---------------------------------------------------------------------------
// Stages and counters

/// Stages of per-packet cost. The first kProfPrimaryStageCount stages are
/// the non-overlapping top-level pipeline phases of a worker's burst loop;
/// their cycle sums reconcile against the worker's busy wall-clock time.
/// The remaining stages are nested drill-downs (timed *inside* a primary
/// stage, possibly on another thread) and are reported separately.
enum class ProfStage : std::uint8_t {
  // Primary (non-overlapping; sum ~= busy wall time of the worker):
  kPoll = 0,     // ingress poll_burst on the in port
  kViewWalk,     // piggyback view open / frame classification
  kLogApply,     // per-burst replica log apply
  kTailCommit,   // tail duty: strip logs, attach wrap-around commits
  kProcess,      // middlebox packet transaction
  kAppend,       // log append + egress staging / emit
  kEgressFlush,  // burst egress flush (send_burst + blocking stragglers)
  kParkDrain,    // parked-work drain + park bookkeeping
  kHandoffDrain, // cross-shard handoff ring drain
  // Auxiliary (nested inside primary stages or on non-worker threads):
  kLinkSend,   // Port::send / send_burst internals (Link, ReliableChannel)
  kLinkPoll,   // Port::poll / poll_burst internals
  kStoreApply, // StateStore owner-path apply (inside kLogApply)
  kPoolAlloc,  // PacketPool::alloc_raw
  kPoolFree,   // PacketPool::free_raw
  kSendBlocked,  // send_blocking retries on a full downstream port; the
                 // time also stays in its enclosing primary stage, but is
                 // excluded from the burst's cost sample (backpressure is
                 // the next server's bottleneck, not this one's)
};
inline constexpr std::size_t kProfStageCount = 15;
inline constexpr std::size_t kProfPrimaryStageCount = 9;

const char* prof_stage_name(ProfStage stage) noexcept;

inline constexpr bool prof_stage_primary(ProfStage stage) noexcept {
  return static_cast<std::size_t>(stage) < kProfPrimaryStageCount;
}

/// Event counters: lock acquisition vs contention, allocation slow paths,
/// blocking-send retries. The *violation* subset trips quiet mode.
enum class ProfCounter : std::uint8_t {
  kPartitionLockAcquire = 0,
  kPartitionLockContended,  // violation: first CAS lost to another owner
  kPoolAllocFailure,       // violation: pool exhausted, alloc returned null
  kPoolFreeRetry,          // violation: free raced a concurrent alloc
  kSendRetry,              // violation: send_blocking spun on a full ring
  kOwnerMiss,              // violation: shard-affine txn on a non-owner thread
  kHandoffPush,            // cross-shard write handed to the owning worker
};
inline constexpr std::size_t kProfCounterCount = 7;

const char* prof_counter_name(ProfCounter c) noexcept;

inline constexpr bool prof_counter_is_violation(ProfCounter c) noexcept {
  return c != ProfCounter::kPartitionLockAcquire &&
         c != ProfCounter::kHandoffPush;
}

// ---------------------------------------------------------------------------
// Per-worker accumulator slot

/// rt::Histogram buckets covering costs below 2^32 cycles per packet; a
/// larger sample lands in the last bucket.
inline constexpr std::size_t kProfCostBuckets = 896;

/// One worker thread's accumulators. Cache-line aligned and written only by
/// the owning thread (relaxed atomics so concurrent report snapshots are
/// race-free under TSan).
struct alignas(rt::kCacheLineSize) ProfSlot {
  std::atomic<std::uint64_t> cycles[kProfStageCount];
  std::atomic<std::uint64_t> ops[kProfStageCount];
  std::atomic<std::uint64_t> packets{0};      // data packets this worker handled
  std::atomic<std::uint64_t> bursts{0};       // non-empty burst iterations
  std::atomic<std::uint64_t> wall_cycles{0};  // busy wall: cycles spent in
                                              // non-empty burst iterations
  std::atomic<std::uint64_t> counters[kProfCounterCount];
  /// Per-burst cost per polled packet (cycles, send_blocking retries
  /// excluded), one sample per polled packet, in rt::Histogram's buckets.
  /// Its median is the robust per-packet cost: a burst preempted on an
  /// oversubscribed host costs milliseconds and would swamp a mean.
  std::atomic<std::uint64_t> cost[kProfCostBuckets];
  /// Written under HotProfiler's registration mutex; read under it too.
  char name[48]{};
  std::atomic<bool> used{false};

  void add(ProfStage stage, std::uint64_t delta_cycles,
           std::uint64_t op_count = 1) noexcept {
    const auto i = static_cast<std::size_t>(stage);
    cycles[i].fetch_add(delta_cycles, std::memory_order_relaxed);
    ops[i].fetch_add(op_count, std::memory_order_relaxed);
  }

  /// Adds @p weight samples of @p cycles_per_packet to the cost
  /// distribution.
  void record_cost(std::uint64_t cycles_per_packet,
                   std::uint64_t weight) noexcept {
    const std::size_t i = std::min(
        rt::Histogram::bucket_index(cycles_per_packet), kProfCostBuckets - 1);
    cost[i].fetch_add(weight, std::memory_order_relaxed);
  }
};

/// RAII stage timer: accumulates the enclosed rdtsc delta (and an op count)
/// into @p slot, or does nothing when @p slot is null.
class ProfStageTimer {
 public:
  ProfStageTimer(ProfSlot* slot, ProfStage stage,
                 std::uint64_t op_count = 1) noexcept
      : slot_(slot) {
    if (SFC_UNLIKELY(slot_ != nullptr)) {
      stage_ = stage;
      ops_ = op_count;
      start_ = rt::rdtsc();
    }
  }
  ~ProfStageTimer() {
    if (SFC_UNLIKELY(slot_ != nullptr)) {
      slot_->add(stage_, rt::rdtsc() - start_, ops_);
    }
  }
  ProfStageTimer(const ProfStageTimer&) = delete;
  ProfStageTimer& operator=(const ProfStageTimer&) = delete;

 private:
  ProfSlot* slot_;
  ProfStage stage_{ProfStage::kPoll};
  std::uint64_t ops_{0};
  std::uint64_t start_{0};
};

/// Stage marks of one worker burst. open() starts the burst just before
/// the poll; each mark(stage) bills [previous mark, now] to @p stage and
/// advances the mark, so the marks tile the burst: glue between two marks
/// lands in the later stage, and a mark taken inside a nested call shrinks
/// the enclosing stage instead of double-counting it. finish() flushes the
/// burst into the calling thread's slot once, so stage sums reconcile
/// exactly with the burst wall. With no profiler installed every call is a
/// single branch.
class ProfBurst {
 public:
  /// Starts a burst on the calling thread's slot of the installed profiler
  /// (registered under the thread's Worker name on first use).
  void open() noexcept;

  void mark(ProfStage stage) noexcept {
    if (SFC_UNLIKELY(slot_ != nullptr)) {
      const std::uint64_t now = rt::rdtsc();
      cycles_[static_cast<std::size_t>(stage)] += now - mark_;
      mark_ = now;
    }
  }

  /// Start time for blocked(); 0 when no burst is open.
  std::uint64_t stamp() const noexcept {
    return SFC_UNLIKELY(slot_ != nullptr) ? rt::rdtsc() : 0;
  }
  /// Bills [@p since, now] to the auxiliary kSendBlocked stage without
  /// moving the mark, and excludes it from this burst's cost sample.
  void blocked(std::uint64_t since) noexcept {
    if (SFC_UNLIKELY(slot_ != nullptr)) {
      const std::uint64_t d = rt::rdtsc() - since;
      blocked_ += d;
      slot_->add(ProfStage::kSendBlocked, d);
    }
  }

  /// Ends the burst. @p ops packets were polled; @p packets of them are
  /// the unit the stage table divides by (a logger polls PALs too, but
  /// costs per data packet). The cost sample is per op. ops == 0
  /// discards the burst. The wall ends at the last mark.
  void finish(std::uint64_t ops, std::uint64_t packets) noexcept {
    if (SFC_UNLIKELY(slot_ != nullptr)) flush(ops, packets);
  }
  void finish(std::uint64_t packets) noexcept { finish(packets, packets); }

 private:
  void flush(std::uint64_t ops, std::uint64_t packets) noexcept;

  ProfSlot* slot_{nullptr};
  std::uint64_t start_{0};
  std::uint64_t mark_{0};
  std::uint64_t blocked_{0};
  std::uint64_t cycles_[kProfPrimaryStageCount]{};
};

// ---------------------------------------------------------------------------
// Reports

struct ProfViolation {
  ProfCounter kind;
  std::uint64_t ts_ns;  // wall-clock (steady) time the violation fired
  std::string worker;
};

struct BudgetStageRow {
  ProfStage stage;
  std::uint64_t cycles{0};
  std::uint64_t ops{0};
  double cycles_per_packet{0.0};  // cycles / denominator (see BudgetWorker)
  double ns_per_packet{0.0};
};

struct BudgetWorker {
  std::string worker;
  std::uint64_t packets{0};
  std::uint64_t bursts{0};
  std::uint64_t wall_cycles{0};
  /// sum(primary stage cycles) / wall_cycles; 0 when wall_cycles == 0.
  double reconciliation{0.0};
  std::vector<BudgetStageRow> stages;  // all kProfStageCount rows, in order
  std::uint64_t counters[kProfCounterCount]{};
  /// The slot's per-burst cost distribution (cycles per polled packet);
  /// filled by HotProfiler::report().
  rt::Histogram cost;
  /// cost's median in ns: the worker's robust cost per polled packet.
  double median_ns_per_packet{0.0};
};

struct BudgetReport {
  double tsc_hz{0.0};
  std::vector<BudgetWorker> workers;  // per-worker rows (used slots only)
  BudgetWorker total;                 // aggregate across workers
  bool quiet_armed{false};
  std::uint64_t quiet_violations{0};
  std::vector<ProfViolation> violations;  // first kMaxViolationRecords only
};

/// Renders a table2-style text table (ns/packet and cycles/packet per
/// stage, per worker plus the aggregate).
std::string budget_to_text(const BudgetReport& report);

// ---------------------------------------------------------------------------
// HotProfiler

class HotProfiler : rt::NonCopyable {
 public:
  static constexpr std::size_t kMaxSlots = 64;
  static constexpr std::size_t kMaxViolationRecords = 64;

  HotProfiler();
  ~HotProfiler();

  /// Fast path: the calling thread's slot, or nullptr if the thread has not
  /// registered with this profiler yet. Thread-local cached; no locking.
  ProfSlot* maybe_slot() noexcept;

  /// Registers (idempotently) the calling thread under @p name. Cheap after
  /// the first call per thread. Worker threads call this with their worker
  /// label; deep layers use auto_slot() instead.
  ProfSlot* thread_slot(std::string_view name);

  /// Like thread_slot() but auto-names unregistered threads "t<N>". Used by
  /// instrumentation points that do not know their worker's label.
  ProfSlot* auto_slot();

  /// Bumps @p c on the calling thread's slot. When quiet mode is armed and
  /// @p c is a violation counter, records a violation.
  void count(ProfCounter c, std::uint64_t n = 1) noexcept;

  // Quiet mode -------------------------------------------------------------
  void arm_quiet() noexcept;
  void disarm_quiet() noexcept;
  bool quiet_armed() const noexcept {
    return quiet_armed_.load(std::memory_order_acquire);
  }
  std::uint64_t quiet_violation_count() const noexcept {
    return quiet_violations_.load(std::memory_order_acquire);
  }
  /// True when quiet mode has been armed and nothing violated it.
  bool quiet_ok() const noexcept {
    return quiet_was_armed_.load(std::memory_order_acquire) &&
           quiet_violation_count() == 0;
  }
  std::vector<ProfViolation> violations() const;

  /// Zeroes every slot's accumulators and the whole quiet state — armed
  /// latch included, so callers re-arm explicitly (slots stay registered).
  /// Used at the warmup/measure boundary.
  void reset() noexcept;

  // Reporting --------------------------------------------------------------
  BudgetReport report() const;

  /// Publishes the budget as registry gauges (budget.ns_per_packet{stage,
  /// worker}, budget.cycles_per_packet{...}, budget.counter{kind},
  /// budget.reconciliation{worker}, budget.quiet_*) so it lands in every
  /// BENCH_*.json snapshot. Idempotent; call at report time.
  void export_metrics(Registry& registry) const;

  std::uint64_t generation() const noexcept { return gen_; }

 private:
  ProfSlot* register_thread(std::string_view name);
  BudgetWorker row_for(const ProfSlot* slot) const;

  const std::uint64_t gen_;
  ProfSlot slots_[kMaxSlots];
  std::atomic<std::uint32_t> next_slot_{0};
  /// A thread's first prof_count can fire inside PartitionLock::lock, so
  /// slot registration must rank below the partition locks. Guards slot
  /// names: readers on other threads take it too.
  mutable Mutex register_mutex_{ranks::kProfRegister, "prof.register"};

  std::atomic<bool> quiet_armed_{false};
  std::atomic<bool> quiet_was_armed_{false};
  std::atomic<std::uint64_t> quiet_violations_{0};
  /// Violations are recorded from arbitrary hot-path lock contexts
  /// (a contended partition lock), so this is nearly the innermost rank
  /// in the tree.
  mutable Mutex violation_mutex_{ranks::kProfViolation, "prof.violation"};
  std::vector<ProfViolation> violation_records_
      SFC_GUARDED_BY(violation_mutex_);
};

// ---------------------------------------------------------------------------
// Process-global installation (run-time gate)

namespace detail {
extern std::atomic<HotProfiler*> g_hot_profiler;
}

/// The installed profiler, or nullptr. This load + null check is the entire
/// disabled-path cost of every instrumentation point.
inline HotProfiler* hot_profiler() noexcept {
  return detail::g_hot_profiler.load(std::memory_order_acquire);
}

/// Installs @p p as the process-global profiler. Returns false (and leaves
/// the current profiler in place) if another profiler is already installed.
bool install_hot_profiler(HotProfiler* p) noexcept;

/// Uninstalls @p p if it is the installed profiler (no-op otherwise).
void uninstall_hot_profiler(HotProfiler* p) noexcept;

/// Calling thread's slot of the installed profiler (auto-registered), or
/// nullptr when no profiler is installed. Single branch when disabled.
inline ProfSlot* prof_slot() noexcept {
  HotProfiler* p = hot_profiler();
  if (SFC_UNLIKELY(p != nullptr)) return p->auto_slot();
  return nullptr;
}

/// Bumps @p c on the installed profiler, if any. Single branch when
/// disabled.
inline void prof_count(ProfCounter c, std::uint64_t n = 1) noexcept {
  HotProfiler* p = hot_profiler();
  if (SFC_UNLIKELY(p != nullptr)) p->count(c, n);
}

inline void ProfBurst::open() noexcept {
  slot_ = prof_slot();
  if (SFC_UNLIKELY(slot_ != nullptr)) {
    start_ = mark_ = rt::rdtsc();
    blocked_ = 0;
  }
}

}  // namespace sfc::obs
