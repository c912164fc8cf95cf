#include "obs/span.hpp"

#include <algorithm>
#include <map>

#include "runtime/histogram.hpp"

namespace sfc::obs {
namespace {

/// Collector generations are globally unique and never reused, so a stale
/// thread-local cache entry from a destroyed collector can never match a
/// live one (and its dangling queue pointer is never dereferenced).
std::atomic<std::uint64_t> g_collector_gen{1};

struct LocalRef {
  std::uint64_t gen{0};
  SpanCollector::Ring* ring{nullptr};
};
thread_local std::vector<LocalRef> t_queues;

}  // namespace

const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kGenEmit: return "gen_emit";
    case SpanKind::kNodeIngress: return "ingress";
    case SpanKind::kApply: return "apply_logs";
    case SpanKind::kProcess: return "process";
    case SpanKind::kCommitAttach: return "commit_attach";
    case SpanKind::kStrip: return "strip_logs";
    case SpanKind::kPark: return "park";
    case SpanKind::kUnpark: return "unpark";
    case SpanKind::kNodeEgress: return "egress";
    case SpanKind::kLinkEnter: return "link_enter";
    case SpanKind::kLinkExit: return "link_exit";
    case SpanKind::kLinkDrop: return "link_drop";
    case SpanKind::kLinkHold: return "link_hold";
    case SpanKind::kBufferHold: return "buffer_hold";
    case SpanKind::kBufferRelease: return "buffer_release";
    case SpanKind::kSinkRecv: return "sink_recv";
    case SpanKind::kFail: return "fail";
    case SpanKind::kDetect: return "detect";
    case SpanKind::kSpawn: return "spawn";
    case SpanKind::kInitAck: return "init_ack";
    case SpanKind::kFetchStart: return "fetch_start";
    case SpanKind::kFetchDone: return "fetch_done";
    case SpanKind::kReroute: return "reroute";
    case SpanKind::kNackSent: return "nack_sent";
    case SpanKind::kNackServed: return "nack_served";
    case SpanKind::kNackApplied: return "nack_applied";
    case SpanKind::kRecoveryInit: return "recovery_init";
    case SpanKind::kRecovered: return "recovered";
  }
  return "?";
}

SpanCollector::SpanCollector(Registry* registry, Config cfg)
    : gen_(g_collector_gen.fetch_add(1, std::memory_order_relaxed)),
      cfg_(cfg),
      registry_(registry) {
  records_.reserve(std::min<std::size_t>(cfg_.max_records, 1u << 16));
  if (registry_ != nullptr) {
    registry_->set_span_sink(this);
    registry_->gauge_fn("span.collected", {{"span", "collector"}},
                        [this] { return static_cast<double>(collected()); });
    registry_->gauge_fn("span.dropped", {{"span", "collector"}},
                        [this] { return static_cast<double>(dropped()); });
  }
  drainer_ = std::make_unique<rt::Worker>("span-drain",
                                          [this] { return tick(); });
}

SpanCollector::~SpanCollector() {
  if (registry_ != nullptr) {
    if (registry_->span_sink() == this) registry_->set_span_sink(nullptr);
    registry_->remove_matching("span", "collector");
  }
  drainer_.reset();  // Joins the drainer before queues_ dies.
}

SpanCollector::Ring* SpanCollector::local_ring() {
  for (const auto& ref : t_queues) {
    if (ref.gen == gen_) return ref.ring;
  }
  Ring* ring = nullptr;
  {
    LockGuard lock(register_mutex_);
    // Label the ring by the owning worker so per-ring drop/occupancy
    // gauges name the thread that produced them ("main" covers
    // test/driver threads).
    std::string owner{rt::current_worker_name()};
    if (owner.empty()) owner = "main";
    ring = &queues_.emplace_back(cfg_.thread_buffer_capacity,
                                 std::move(owner));
    // Ring gauges cannot be registered here: a thread's first record()
    // runs under whatever component lock the caller holds (e.g. the
    // egress buffer flushing into a link), and Registry::gauge_fn takes
    // the registry mutex, which outranks all of them — registering
    // inline inverts the lock order against Registry::snapshot driving
    // component callbacks. Park the ring for the drain side, which runs
    // with nothing held above it.
    if (registry_ != nullptr) pending_gauges_.push_back(ring);
  }
  t_queues.push_back({gen_, ring});
  return ring;
}

void SpanCollector::record(const SpanRecord& r) noexcept {
  Ring* ring = local_ring();
  if (!ring->queue.try_push(SpanRecord{r})) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    ring->drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Occupancy high-water: the producer is the only pusher, so reading
  // size right after the push is an accurate producer-side occupancy.
  const auto occ =
      static_cast<std::uint64_t>(ring->queue.size_approx());
  if (occ > ring->high_water.load(std::memory_order_relaxed)) {
    ring->high_water.store(occ, std::memory_order_relaxed);
  }
}

std::size_t SpanCollector::drain() {
  LockGuard drain_lock(drain_mutex_);
  std::vector<Ring*> queues;
  std::vector<Ring*> pending;
  {
    LockGuard lock(register_mutex_);
    queues.reserve(queues_.size());
    for (auto& q : queues_) queues.push_back(&q);
    pending.swap(pending_gauges_);
  }
  // Deferred ring-gauge registration (see local_ring): drain_mutex_
  // outranks the registry mutex, so this is the safe side to touch it.
  for (Ring* ring : pending) {
    const Labels labels{{"span", "collector"}, {"worker", ring->owner}};
    registry_->gauge_fn("span.ring_dropped", labels, [ring] {
      return static_cast<double>(ring->drops.load(std::memory_order_relaxed));
    });
    registry_->gauge_fn("span.ring_high_water", labels, [ring] {
      return static_cast<double>(
          ring->high_water.load(std::memory_order_relaxed));
    });
  }
  std::size_t moved = 0;
  for (auto* ring : queues) {
    while (auto r = ring->queue.try_pop()) {
      ++moved;
      if (records_.size() < cfg_.max_records) {
        records_.push_back(*r);
        collected_.fetch_add(1, std::memory_order_relaxed);
      } else {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return moved;
}

bool SpanCollector::tick() { return drain() > 0; }

std::vector<SpanRecord> SpanCollector::snapshot() {
  drain();
  std::vector<SpanRecord> out;
  {
    LockGuard lock(drain_mutex_);
    out = records_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

void SpanCollector::clear() {
  drain();
  LockGuard lock(drain_mutex_);
  records_.clear();
  collected_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  LockGuard reg_lock(register_mutex_);
  for (auto& ring : queues_) {
    ring.drops.store(0, std::memory_order_relaxed);
    ring.high_water.store(0, std::memory_order_relaxed);
  }
}

// --- Derived views. ------------------------------------------------------

std::vector<HopBreakdown> per_hop_breakdown(
    const std::vector<SpanRecord>& records) {
  // Group by trace, walk each trace in time order, and pair ingress/egress
  // per node site. A link transit completed just before a node ingress is
  // attributed to that hop, which works for any wiring without the
  // analysis knowing the chain topology.
  std::vector<SpanRecord> rs = records;
  std::stable_sort(rs.begin(), rs.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
                     return a.ts_ns < b.ts_ns;
                   });

  std::map<std::uint32_t, HopBreakdown> hops;
  const auto hop_of = [&hops](std::uint32_t site) -> HopBreakdown& {
    auto& h = hops[site];
    h.site = site;
    return h;
  };

  std::size_t i = 0;
  while (i < rs.size()) {
    const std::uint64_t trace = rs[i].trace_id;
    std::size_t end = i;
    while (end < rs.size() && rs[end].trace_id == trace) ++end;
    if (is_recovery_trace(trace)) {
      i = end;
      continue;
    }

    std::map<std::uint32_t, std::uint64_t> ingress_ts;
    std::map<std::uint32_t, std::uint64_t> link_enter_ts;
    std::uint64_t pending_transit = 0;
    for (; i < end; ++i) {
      const SpanRecord& r = rs[i];
      switch (r.kind) {
        case SpanKind::kLinkEnter:
          link_enter_ts[r.site] = r.ts_ns;
          break;
        case SpanKind::kLinkExit: {
          const auto it = link_enter_ts.find(r.site);
          if (it != link_enter_ts.end() && r.ts_ns >= it->second) {
            pending_transit = r.ts_ns - it->second;
            link_enter_ts.erase(it);
          }
          break;
        }
        case SpanKind::kNodeIngress: {
          auto& h = hop_of(r.site);
          h.position = static_cast<std::uint32_t>(r.a);
          ingress_ts[r.site] = r.ts_ns;
          if (pending_transit != 0) {
            h.transit_ns.record(pending_transit);
            pending_transit = 0;
          }
          break;
        }
        case SpanKind::kProcess:
          hop_of(r.site).process_ns.record(r.a);
          break;
        case SpanKind::kApply:
          hop_of(r.site).apply_ns.record(r.a);
          break;
        case SpanKind::kNodeEgress: {
          const auto it = ingress_ts.find(r.site);
          if (it != ingress_ts.end() && r.ts_ns >= it->second) {
            hop_of(r.site).hop_ns.record(r.ts_ns - it->second);
            ingress_ts.erase(it);
          }
          break;
        }
        default:
          break;
      }
    }
  }

  std::vector<HopBreakdown> out;
  out.reserve(hops.size());
  for (auto& [site, h] : hops) out.push_back(std::move(h));
  std::stable_sort(out.begin(), out.end(),
                   [](const HopBreakdown& a, const HopBreakdown& b) {
                     if (a.position != b.position) return a.position < b.position;
                     return a.site < b.site;
                   });
  return out;
}

bool RecoveryTimeline::complete() const noexcept {
  // The replacement starts fetching as soon as it has *sent* its init
  // ack, while init_ack_ns is stamped when the ack *reaches* the
  // orchestrator — over a WAN that arrival can postdate fetch_done, so
  // the ack is only ordered against spawn and reroute, not the fetches.
  return fail_ns != 0 && detect_ns != 0 && spawn_ns != 0 && init_ack_ns != 0 &&
         fetch_start_ns != 0 && fetch_done_ns != 0 && reroute_ns != 0 &&
         fail_ns <= detect_ns && detect_ns <= spawn_ns &&
         spawn_ns <= init_ack_ns && init_ack_ns <= reroute_ns &&
         spawn_ns <= fetch_start_ns && fetch_start_ns <= fetch_done_ns &&
         fetch_done_ns <= reroute_ns;
}

std::vector<RecoveryTimeline> recovery_timelines(
    const std::vector<SpanRecord>& records) {
  std::vector<SpanRecord> rs;
  for (const SpanRecord& r : records) {
    if (is_recovery_trace(r.trace_id)) rs.push_back(r);
  }
  std::stable_sort(rs.begin(), rs.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.ts_ns < b.ts_ns;
                   });

  std::map<std::uint64_t, RecoveryTimeline> timelines;
  for (const SpanRecord& r : rs) {
    auto& t = timelines[r.trace_id];
    t.position = static_cast<std::uint32_t>(r.trace_id & 0xFF'FFFFu);
    const auto first = [&r](std::uint64_t& field) {
      if (field == 0) field = r.ts_ns;
    };
    switch (r.kind) {
      case SpanKind::kFail: first(t.fail_ns); break;
      case SpanKind::kDetect: first(t.detect_ns); break;
      case SpanKind::kSpawn: first(t.spawn_ns); break;
      case SpanKind::kInitAck: first(t.init_ack_ns); break;
      case SpanKind::kFetchStart: first(t.fetch_start_ns); break;
      case SpanKind::kFetchDone:
        // Last fetch completion: the fetch window closes when every
        // store has been pulled.
        t.fetch_done_ns = std::max(t.fetch_done_ns, r.ts_ns);
        break;
      case SpanKind::kReroute: first(t.reroute_ns); break;
      default: break;
    }
  }

  std::vector<RecoveryTimeline> out;
  out.reserve(timelines.size());
  for (auto& [id, t] : timelines) out.push_back(t);
  std::stable_sort(out.begin(), out.end(),
                   [](const RecoveryTimeline& a, const RecoveryTimeline& b) {
                     return a.position < b.position;
                   });
  return out;
}

}  // namespace sfc::obs
