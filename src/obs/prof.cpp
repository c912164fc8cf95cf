#include "obs/prof.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "obs/registry.hpp"
#include "runtime/worker.hpp"

namespace sfc::obs {

namespace detail {
std::atomic<HotProfiler*> g_hot_profiler{nullptr};
}  // namespace detail

namespace {

// Generation counter so thread-local slot caches never hit a stale (freed
// and reallocated) profiler — the same idiom as the span collector's ring
// registration.
std::atomic<std::uint64_t> g_prof_gen{0};

struct TlsSlotCache {
  std::uint64_t gen{0};
  ProfSlot* slot{nullptr};
};
thread_local TlsSlotCache t_slot_cache;

constexpr const char* kStageNames[kProfStageCount] = {
    "poll",         "view_walk", "log_apply",   "tail_commit", "process",
    "append",       "egress_flush", "park_drain", "handoff_drain",
    "link_send",    "link_poll", "store_apply", "pool_alloc",  "pool_free",
    "send_blocked",
};

constexpr const char* kCounterNames[kProfCounterCount] = {
    "partition_lock_acquire", "partition_lock_contended",
    "pool_alloc_failure",     "pool_free_retry",
    "send_retry",             "owner_miss",
    "handoff_push",
};

double safe_div(double num, double den) { return den > 0 ? num / den : 0.0; }

rt::Histogram cost_histogram(const ProfSlot& slot) {
  rt::Histogram h;
  for (std::size_t i = 0; i < kProfCostBuckets; ++i) {
    h.record_n(rt::Histogram::bucket_upper_bound(i),
               slot.cost[i].load(std::memory_order_relaxed));
  }
  return h;
}

}  // namespace

void ProfBurst::flush(std::uint64_t ops, std::uint64_t packets) noexcept {
  ProfSlot* slot = slot_;
  slot_ = nullptr;
  if (ops == 0) {
    std::fill(std::begin(cycles_), std::end(cycles_), 0);
    return;
  }
  for (std::size_t s = 0; s < kProfPrimaryStageCount; ++s) {
    if (cycles_[s] == 0) continue;
    slot->cycles[s].fetch_add(cycles_[s], std::memory_order_relaxed);
    slot->ops[s].fetch_add(ops, std::memory_order_relaxed);
    cycles_[s] = 0;
  }
  const std::uint64_t wall = mark_ - start_;
  slot->packets.fetch_add(packets, std::memory_order_relaxed);
  slot->bursts.fetch_add(1, std::memory_order_relaxed);
  slot->wall_cycles.fetch_add(wall, std::memory_order_relaxed);
  slot->record_cost((wall - std::min(blocked_, wall)) / ops, ops);
}

const char* prof_stage_name(ProfStage stage) noexcept {
  return kStageNames[static_cast<std::size_t>(stage)];
}

const char* prof_counter_name(ProfCounter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

bool install_hot_profiler(HotProfiler* p) noexcept {
  HotProfiler* expected = nullptr;
  return detail::g_hot_profiler.compare_exchange_strong(
      expected, p, std::memory_order_acq_rel, std::memory_order_acquire);
}

void uninstall_hot_profiler(HotProfiler* p) noexcept {
  HotProfiler* expected = p;
  detail::g_hot_profiler.compare_exchange_strong(
      expected, nullptr, std::memory_order_acq_rel, std::memory_order_acquire);
}

HotProfiler::HotProfiler()
    : gen_(g_prof_gen.fetch_add(1, std::memory_order_relaxed) + 1) {}

HotProfiler::~HotProfiler() { uninstall_hot_profiler(this); }

ProfSlot* HotProfiler::maybe_slot() noexcept {
  return t_slot_cache.gen == gen_ ? t_slot_cache.slot : nullptr;
}

ProfSlot* HotProfiler::register_thread(std::string_view name) {
  LockGuard lock(register_mutex_);
  // Re-check under the lock: another call on this thread cannot race us,
  // but thread_slot() after auto_slot() renames in place instead.
  ProfSlot* slot = maybe_slot();
  if (slot == nullptr) {
    const std::uint32_t raw = next_slot_.fetch_add(1, std::memory_order_relaxed);
    // Overflow threads share the last slot; 64 slots covers every chain
    // configuration the repo builds (workers + control + tgen threads).
    const std::uint32_t idx =
        std::min<std::uint32_t>(raw, kMaxSlots - 1);
    slot = &slots_[idx];
    slot->used.store(true, std::memory_order_release);
    t_slot_cache = {gen_, slot};
  }
  if (!name.empty()) {
    const std::size_t n = std::min(name.size(), sizeof(slot->name) - 1);
    std::memcpy(slot->name, name.data(), n);
    slot->name[n] = '\0';
  }
  return slot;
}

ProfSlot* HotProfiler::thread_slot(std::string_view name) {
  ProfSlot* slot = maybe_slot();
  if (slot != nullptr && slot->name[0] != '\0') return slot;
  return register_thread(name);
}

ProfSlot* HotProfiler::auto_slot() {
  ProfSlot* slot = maybe_slot();
  if (SFC_UNLIKELY(slot == nullptr)) {
    // Prefer the Worker's name; fall back to a slot ordinal for non-Worker
    // threads (tests, the driver's main thread).
    const std::string_view worker_name = rt::current_worker_name();
    if (!worker_name.empty()) return register_thread(worker_name);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "t%u",
                  next_slot_.load(std::memory_order_relaxed));
    slot = register_thread(buf);
  }
  return slot;
}

void HotProfiler::count(ProfCounter c, std::uint64_t n) noexcept {
  ProfSlot* slot = auto_slot();
  slot->counters[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
  if (SFC_UNLIKELY(quiet_armed_.load(std::memory_order_acquire)) &&
      prof_counter_is_violation(c)) {
    quiet_violations_.fetch_add(n, std::memory_order_acq_rel);
    LockGuard lock(violation_mutex_);
    if (violation_records_.size() < kMaxViolationRecords) {
      violation_records_.push_back(
          ProfViolation{c, rt::now_ns(), std::string(slot->name)});
    }
  }
}

void HotProfiler::arm_quiet() noexcept {
  {
    LockGuard lock(violation_mutex_);
    violation_records_.clear();
  }
  quiet_violations_.store(0, std::memory_order_release);
  quiet_was_armed_.store(true, std::memory_order_release);
  quiet_armed_.store(true, std::memory_order_release);
}

void HotProfiler::disarm_quiet() noexcept {
  quiet_armed_.store(false, std::memory_order_release);
}

std::vector<ProfViolation> HotProfiler::violations() const {
  LockGuard lock(violation_mutex_);
  return violation_records_;
}

void HotProfiler::reset() noexcept {
  for (auto& slot : slots_) {
    if (!slot.used.load(std::memory_order_acquire)) continue;
    for (auto& c : slot.cycles) c.store(0, std::memory_order_relaxed);
    for (auto& o : slot.ops) o.store(0, std::memory_order_relaxed);
    slot.packets.store(0, std::memory_order_relaxed);
    slot.bursts.store(0, std::memory_order_relaxed);
    slot.wall_cycles.store(0, std::memory_order_relaxed);
    for (auto& c : slot.counters) c.store(0, std::memory_order_relaxed);
    for (auto& c : slot.cost) c.store(0, std::memory_order_relaxed);
  }
  {
    LockGuard lock(violation_mutex_);
    violation_records_.clear();
  }
  quiet_violations_.store(0, std::memory_order_release);
  // The new window starts unarmed: callers arm_quiet() explicitly after
  // reset, so a pre-warmup violation cannot leak a stale armed latch.
  quiet_armed_.store(false, std::memory_order_release);
  quiet_was_armed_.store(false, std::memory_order_release);
}

namespace {

void finalize_worker(BudgetWorker& w, double tsc_hz) {
  std::uint64_t primary_cycles = 0;
  for (auto& row : w.stages) {
    if (prof_stage_primary(row.stage)) primary_cycles += row.cycles;
    // Primary stages normalize by the worker's packet count (table2
    // semantics: cost per packet handled by this worker); auxiliary
    // drill-down stages normalize by their own op count.
    const double denom = prof_stage_primary(row.stage)
                             ? static_cast<double>(w.packets)
                             : static_cast<double>(row.ops);
    row.cycles_per_packet = safe_div(static_cast<double>(row.cycles), denom);
    row.ns_per_packet =
        tsc_hz > 0 ? row.cycles_per_packet * 1e9 / tsc_hz : 0.0;
  }
  w.reconciliation = safe_div(static_cast<double>(primary_cycles),
                              static_cast<double>(w.wall_cycles));
  w.median_ns_per_packet =
      tsc_hz > 0 ? static_cast<double>(w.cost.p50()) * 1e9 / tsc_hz : 0.0;
}

}  // namespace

BudgetReport HotProfiler::report() const {
  BudgetReport out;
  out.tsc_hz = static_cast<double>(rt::tsc_hz());
  out.total.worker = "all";
  out.total.stages.resize(kProfStageCount);
  for (std::size_t s = 0; s < kProfStageCount; ++s) {
    out.total.stages[s].stage = static_cast<ProfStage>(s);
  }

  // Names are written under register_mutex_ by registering threads.
  LockGuard lock(register_mutex_);
  for (const auto& slot : slots_) {
    if (!slot.used.load(std::memory_order_acquire)) continue;
    BudgetWorker w;
    w.worker = slot.name[0] != '\0' ? slot.name : "?";
    w.packets = slot.packets.load(std::memory_order_relaxed);
    w.bursts = slot.bursts.load(std::memory_order_relaxed);
    w.wall_cycles = slot.wall_cycles.load(std::memory_order_relaxed);
    w.stages.resize(kProfStageCount);
    for (std::size_t s = 0; s < kProfStageCount; ++s) {
      auto& row = w.stages[s];
      row.stage = static_cast<ProfStage>(s);
      row.cycles = slot.cycles[s].load(std::memory_order_relaxed);
      row.ops = slot.ops[s].load(std::memory_order_relaxed);
      out.total.stages[s].cycles += row.cycles;
      out.total.stages[s].ops += row.ops;
    }
    for (std::size_t c = 0; c < kProfCounterCount; ++c) {
      w.counters[c] = slot.counters[c].load(std::memory_order_relaxed);
      out.total.counters[c] += w.counters[c];
    }
    out.total.packets += w.packets;
    out.total.bursts += w.bursts;
    out.total.wall_cycles += w.wall_cycles;
    w.cost = cost_histogram(slot);
    out.total.cost.merge(w.cost);
    finalize_worker(w, out.tsc_hz);
    out.workers.push_back(std::move(w));
  }
  // Aggregate semantics: each worker's handling of a packet counts once,
  // so aggregate ns/packet is cost per packet-hop — the number comparable
  // to the paper's per-middlebox Table 2.
  finalize_worker(out.total, out.tsc_hz);

  out.quiet_armed = quiet_armed();
  out.quiet_violations = quiet_violation_count();
  out.violations = violations();
  return out;
}

std::string budget_to_text(const BudgetReport& report) {
  std::string out;
  char line[256];

  auto table = [&](const BudgetWorker& w) {
    std::snprintf(line, sizeof(line),
                  "worker %-20s packets=%" PRIu64 " bursts=%" PRIu64
                  " wall=%.1f ns/pkt reconciliation=%.1f%%\n",
                  w.worker.c_str(), w.packets, w.bursts,
                  report.tsc_hz > 0
                      ? static_cast<double>(w.wall_cycles) * 1e9 /
                            report.tsc_hz /
                            (w.packets > 0 ? static_cast<double>(w.packets)
                                           : 1.0)
                      : 0.0,
                  w.reconciliation * 100.0);
    out += line;
    std::snprintf(line, sizeof(line), "  %-14s %14s %14s %12s\n", "stage",
                  "cycles/pkt", "ns/pkt", "ops");
    out += line;
    double primary_ns = 0.0;
    for (const auto& row : w.stages) {
      if (row.ops == 0 && row.cycles == 0) continue;
      const bool primary = prof_stage_primary(row.stage);
      if (primary) primary_ns += row.ns_per_packet;
      std::snprintf(line, sizeof(line), "  %-14s %14.1f %14.1f %12" PRIu64
                    "%s\n",
                    prof_stage_name(row.stage), row.cycles_per_packet,
                    row.ns_per_packet, row.ops, primary ? "" : "  (aux)");
      out += line;
    }
    std::snprintf(line, sizeof(line), "  %-14s %14s %14.1f\n", "sum(primary)",
                  "", primary_ns);
    out += line;
    bool have_counter = false;
    for (std::size_t c = 0; c < kProfCounterCount; ++c) {
      if (w.counters[c] == 0) continue;
      if (!have_counter) {
        out += "  counters:";
        have_counter = true;
      }
      std::snprintf(line, sizeof(line), " %s=%" PRIu64,
                    prof_counter_name(static_cast<ProfCounter>(c)),
                    w.counters[c]);
      out += line;
    }
    if (have_counter) out += "\n";
  };

  std::snprintf(line, sizeof(line),
                "live budget (tsc %.2f GHz, %zu workers)\n",
                report.tsc_hz / 1e9, report.workers.size());
  out += line;
  for (const auto& w : report.workers) table(w);
  out += "---- aggregate (per packet-hop) ----\n";
  table(report.total);
  if (report.quiet_armed || report.quiet_violations != 0) {
    std::snprintf(line, sizeof(line),
                  "quiet: armed=%d violations=%" PRIu64 "\n",
                  report.quiet_armed ? 1 : 0, report.quiet_violations);
    out += line;
    for (const auto& v : report.violations) {
      std::snprintf(line, sizeof(line), "  violation %s on %s at %" PRIu64
                    " ns\n",
                    prof_counter_name(v.kind), v.worker.c_str(), v.ts_ns);
      out += line;
    }
  }
  return out;
}

void HotProfiler::export_metrics(Registry& registry) const {
  // Live gauge_fn callbacks: values are computed at snapshot time, so a
  // bench that snapshots after the measured window sees final numbers.
  // gauge_fn dedups by (name, labels); calling this repeatedly (e.g. once
  // at chain start with no slots, once at stop with all workers) only adds
  // rows for newly-registered workers. All rows carry {"budget","prof"}
  // for remove_matching cleanup.
  auto add_rows = [&](const char* worker, const ProfSlot* slot) {
    // slot == nullptr selects the aggregate (recomputed per snapshot).
    for (std::size_t s = 0; s < kProfStageCount; ++s) {
      const auto stage = static_cast<ProfStage>(s);
      Labels labels{{"budget", "prof"},
                    {"worker", worker},
                    {"stage", prof_stage_name(stage)}};
      registry.gauge_fn("budget.ns_per_packet", labels,
                        [this, slot, s]() {
                          const BudgetWorker w = row_for(slot);
                          return w.stages[s].ns_per_packet;
                        });
      registry.gauge_fn("budget.cycles_per_packet", labels,
                        [this, slot, s]() {
                          const BudgetWorker w = row_for(slot);
                          return w.stages[s].cycles_per_packet;
                        });
    }
    Labels wl{{"budget", "prof"}, {"worker", worker}};
    registry.gauge_fn("budget.packets", wl, [this, slot]() {
      return static_cast<double>(row_for(slot).packets);
    });
    registry.gauge_fn("budget.reconciliation", wl, [this, slot]() {
      return row_for(slot).reconciliation;
    });
    registry.gauge_fn("budget.wall_ns_per_packet", wl, [this, slot]() {
      const BudgetWorker w = row_for(slot);
      const double hz = static_cast<double>(rt::tsc_hz());
      if (w.packets == 0 || hz <= 0) return 0.0;
      return static_cast<double>(w.wall_cycles) * 1e9 / hz /
             static_cast<double>(w.packets);
    });
  };

  add_rows("all", nullptr);
  // Copy the names under the registration mutex; the registry's own lock
  // ranks above it, so the rows are added after it is released.
  std::vector<std::pair<std::string, const ProfSlot*>> named;
  {
    LockGuard lock(register_mutex_);
    for (const auto& slot : slots_) {
      if (!slot.used.load(std::memory_order_acquire)) continue;
      if (slot.name[0] == '\0') continue;
      named.emplace_back(slot.name, &slot);
    }
  }
  for (const auto& [name, slot] : named) add_rows(name.c_str(), slot);
  for (std::size_t c = 0; c < kProfCounterCount; ++c) {
    const auto counter = static_cast<ProfCounter>(c);
    registry.gauge_fn(
        "budget.counter",
        Labels{{"budget", "prof"}, {"kind", prof_counter_name(counter)}},
        [this, c]() {
          double total = 0;
          for (const auto& slot : slots_) {
            if (!slot.used.load(std::memory_order_acquire)) continue;
            total += static_cast<double>(
                slot.counters[c].load(std::memory_order_relaxed));
          }
          return total;
        });
  }
  Labels ql{{"budget", "prof"}};
  registry.gauge_fn("budget.quiet_armed", ql, [this]() {
    return quiet_was_armed_.load(std::memory_order_acquire) ? 1.0 : 0.0;
  });
  registry.gauge_fn("budget.quiet_violations", ql, [this]() {
    return static_cast<double>(quiet_violation_count());
  });
  registry.gauge_fn("budget.tsc_hz", ql, []() {
    return static_cast<double>(rt::tsc_hz());
  });
}

BudgetWorker HotProfiler::row_for(const ProfSlot* slot) const {
  const double tsc = static_cast<double>(rt::tsc_hz());
  BudgetWorker w;
  w.stages.resize(kProfStageCount);
  for (std::size_t s = 0; s < kProfStageCount; ++s) {
    w.stages[s].stage = static_cast<ProfStage>(s);
  }
  auto accumulate = [&](const ProfSlot& src) {
    for (std::size_t s = 0; s < kProfStageCount; ++s) {
      w.stages[s].cycles += src.cycles[s].load(std::memory_order_relaxed);
      w.stages[s].ops += src.ops[s].load(std::memory_order_relaxed);
    }
    w.packets += src.packets.load(std::memory_order_relaxed);
    w.bursts += src.bursts.load(std::memory_order_relaxed);
    w.wall_cycles += src.wall_cycles.load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < kProfCounterCount; ++c) {
      w.counters[c] += src.counters[c].load(std::memory_order_relaxed);
    }
  };
  if (slot != nullptr) {
    accumulate(*slot);
  } else {
    for (const auto& s : slots_) {
      if (s.used.load(std::memory_order_acquire)) accumulate(s);
    }
  }
  finalize_worker(w, tsc);
  return w;
}

}  // namespace sfc::obs
