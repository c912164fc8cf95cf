// Observability: sampled per-packet span pipeline (Dapper-style).
//
// The traffic generator stamps a deterministic 1-in-N sample of packets
// with a trace id in the packet annotations. Instrumentation points along
// the chain (node ingress/egress, middlebox process, piggyback
// apply/attach/strip, park/unpark, link transit/drop/reorder-hold, egress
// buffer hold/release, recovery phases, NACKs) record timestamped
// SpanRecords into per-thread lock-free SPSC buffers owned by a chain-wide
// SpanCollector. The collector drains them on a background worker and
// derives:
//   * per-hop latency-breakdown histograms (hop transit, mbox process,
//     piggyback apply) — per_hop_breakdown(),
//   * recovery timelines (fail -> detect -> spawn -> init-ack -> fetch ->
//     reroute) — recovery_timelines(),
//   * Chrome trace-event JSON (obs/chrome_trace.hpp), Perfetto-loadable.
//
// Off-path cost when sampling is disabled is a single branch on the
// packet annotation: every per-packet instrumentation point first checks
// anno().trace_id != 0, which the generator only sets for sampled
// packets. Protocol-rate spans (recovery phases, NACKs) check only for
// an installed collector. Destroy the collector after the traffic and
// chain threads have stopped (the hot path reads the registry's sink
// pointer raw).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "obs/registry.hpp"
#include "runtime/common.hpp"
#include "runtime/rng.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/worker.hpp"

namespace sfc::rt {
class Histogram;
}

namespace sfc::obs {

enum class SpanKind : std::uint8_t {
  kGenEmit,        ///< Generator stamped + injected. a = flow hash.
  kNodeIngress,    ///< Node pulled the packet off its in-link. a = position.
  kApply,          ///< Piggyback logs applied. a = duration ns.
  kProcess,        ///< Middlebox packet transaction. a = duration ns.
  kCommitAttach,   ///< Tail attached a commit vector. a = tail mbox.
  kStrip,          ///< Tail stripped its mbox's logs. a = tail mbox.
  kPark,           ///< Parked on a missing log. a = blocking mbox.
  kUnpark,         ///< Unparked. a = parked duration ns.
  kNodeEgress,     ///< Node handed the packet downstream.
  kLinkEnter,      ///< Packet entered a link.
  kLinkExit,       ///< Packet delivered by a link.
  kLinkDrop,       ///< Loss model consumed the packet.
  kLinkHold,       ///< Reorder model delayed the packet. a = extra ns.
  kBufferHold,     ///< Egress buffer held the packet.
  kBufferRelease,  ///< Egress buffer released the packet.
  kSinkRecv,       ///< Measurement sink drained it. a = end-to-end ns.
  // Recovery timeline (trace id = recovery_trace_id(position)).
  kFail,           ///< Node crash-stopped. a = position.
  kDetect,         ///< Orchestrator declared the node failed. a = node id.
  kSpawn,          ///< Replacement spawned. a = new node id.
  kInitAck,        ///< Replacement acknowledged its fetch plan.
  kFetchStart,     ///< Replica began fetching one store. a = mbox.
  kFetchDone,      ///< One store fetch finished. a = mbox.
  kReroute,        ///< Traffic steered through the replacement. a = position.
  // Protocol events (trace id = protocol_trace_id(position)).
  kNackSent,       ///< Asked the predecessor for missing logs. a = mbox.
  kNackServed,     ///< Shipped the logs a NACK asked for. a = mbox.
  kNackApplied,    ///< Applied a NACK reply. a = mbox.
  kRecoveryInit,   ///< Replacement got its fetch plan. a = number of sources.
  kRecovered,      ///< Replacement finished fetching. a = ok flag.
};

const char* to_string(SpanKind k) noexcept;

/// One timestamped event on a trace. 32 bytes; pushed by value through
/// SPSC rings.
struct SpanRecord {
  std::uint64_t trace_id{0};
  std::uint64_t ts_ns{0};
  std::uint64_t a{0};      ///< Kind-specific argument (see SpanKind).
  std::uint32_t site{0};   ///< Where it happened (span_site_* helpers).
  SpanKind kind{SpanKind::kGenEmit};
};

// --- Span sites. ---------------------------------------------------------
// A site is a 32-bit id with a domain tag in the top byte so node ids and
// link ids cannot collide. Components register a human-readable name via
// Registry::name_span_site; the Chrome exporter turns sites into tracks.

constexpr std::uint32_t span_site(std::uint32_t domain, std::uint32_t id) noexcept {
  return (domain << 24) | (id & 0x00FF'FFFFu);
}
constexpr std::uint32_t span_site_node(std::uint32_t node_id) noexcept {
  return span_site(1, node_id);
}
constexpr std::uint32_t span_site_link(std::uint32_t link_id) noexcept {
  return span_site(2, link_id);
}
constexpr std::uint32_t kSpanSiteGen = span_site(0, 1);
constexpr std::uint32_t kSpanSiteSink = span_site(0, 2);
constexpr std::uint32_t kSpanSiteBuffer = span_site(3, 1);
constexpr std::uint32_t kSpanSiteOrch = span_site(4, 1);

/// Trace id carrying one ring position's recovery timeline. High bits keep
/// these disjoint from generator packet ids.
constexpr std::uint64_t kRecoveryTraceBase = 0xFEC0'0000'0000'0000ull;
constexpr std::uint64_t recovery_trace_id(std::uint32_t position) noexcept {
  return kRecoveryTraceBase | position;
}
constexpr bool is_recovery_trace(std::uint64_t trace_id) noexcept {
  return (trace_id & kRecoveryTraceBase) == kRecoveryTraceBase;
}

/// Trace id carrying one ring position's protocol events (NACKs, a
/// replacement's init and completion). Always on like the recovery ids,
/// but disjoint from them: a protocol event never opens a recovery
/// timeline.
constexpr std::uint64_t kProtocolTraceBase = 0xFEB0'0000'0000'0000ull;
constexpr std::uint64_t protocol_trace_id(std::uint32_t position) noexcept {
  return kProtocolTraceBase | position;
}
static_assert(!is_recovery_trace(protocol_trace_id(0x00FF'FFFFu)));

/// Deterministic 1-in-N packet sampler: the decision depends only on
/// (packet id, seed), so the same seed reproduces the same sampled ids on
/// every run — and on both ends of a comparison run.
class SpanSampler {
 public:
  SpanSampler() = default;
  SpanSampler(std::uint64_t every_n, std::uint64_t seed) noexcept
      : every_n_(every_n), seed_(seed) {}

  bool enabled() const noexcept { return every_n_ != 0; }

  bool sampled(std::uint64_t packet_id) const noexcept {
    if (every_n_ == 0) return false;
    if (every_n_ == 1) return true;
    return rt::splitmix64(packet_id ^ seed_) % every_n_ == 0;
  }

 private:
  std::uint64_t every_n_{0};  ///< 0 = sampling off.
  std::uint64_t seed_{0};
};

/// Chain-wide span sink. Producers (any chain thread) push into a
/// per-thread SPSC ring created on first use; a background worker drains
/// the rings into a bounded central store. Registered as the registry's
/// span sink so instrumentation points reach it through the registry they
/// already hold.
/// Sizing knobs for SpanCollector (namespace scope: the defaults must be
/// usable in the constructor's default argument, which nested-class NSDMIs
/// cannot be while the enclosing class is incomplete).
struct SpanCollectorConfig {
  std::size_t thread_buffer_capacity{8192};
  std::size_t max_records{1u << 20};  ///< Central store bound.
};

class SpanCollector : rt::NonCopyable {
 public:
  using Config = SpanCollectorConfig;

  explicit SpanCollector(Registry* registry = nullptr, Config cfg = Config());
  ~SpanCollector();

  /// Records one span event. Thread-safe; lock-free after the calling
  /// thread's first record. Drops (and counts, globally and per ring)
  /// when the thread ring is full or the central store hit max_records.
  void record(const SpanRecord& r) noexcept;

  /// Pulls every thread ring into the central store. Returns the number
  /// of records moved. Called periodically by the background worker and
  /// by snapshot().
  std::size_t drain();

  /// Drains, then returns a copy of the central store sorted by
  /// timestamp.
  std::vector<SpanRecord> snapshot();

  /// Drains, then discards everything collected so far (counters too).
  void clear();

  std::uint64_t collected() const noexcept {
    return collected_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// One producer thread's SPSC ring plus its health counters. Rings are
  /// labeled by the owning worker's name (span.ring_dropped /
  /// span.ring_high_water gauges) so a lossy ring points straight at the
  /// thread that overran it.
  struct Ring {
    Ring(std::size_t capacity, std::string owner_name)
        : queue(capacity), owner(std::move(owner_name)) {}
    rt::SpscQueue<SpanRecord> queue;
    std::string owner;
    std::atomic<std::uint64_t> drops{0};
    std::atomic<std::uint64_t> high_water{0};  ///< Max occupancy observed.
  };

 private:
  Ring* local_ring();
  bool tick();

  const std::uint64_t gen_;  ///< Unique per collector; keys thread caches.
  const Config cfg_;
  Registry* registry_{nullptr};

  /// Guards queues_ growth. Low rank: a thread's FIRST record() creates
  /// its ring, and record() runs under node-level locks (egress flush),
  /// so nothing heavier than leaf work may happen under this lock — ring
  /// gauge registration into the registry is deferred to the drain side
  /// (pending_gauges_) for exactly that reason.
  Mutex register_mutex_{ranks::kSpanRegister, "span.register"};
  std::deque<Ring> queues_ SFC_GUARDED_BY(register_mutex_);
  /// Rings created but not yet gauge-registered (drained lazily).
  std::vector<Ring*> pending_gauges_ SFC_GUARDED_BY(register_mutex_);

  /// Serializes the SPSC consumer side. Above the registry rank: the
  /// drainer registers deferred ring gauges while holding it.
  Mutex drain_mutex_{ranks::kSpanDrain, "span.drain"};
  std::vector<SpanRecord> records_ SFC_GUARDED_BY(drain_mutex_);

  std::atomic<std::uint64_t> collected_{0};
  std::atomic<std::uint64_t> dropped_{0};

  std::unique_ptr<rt::Worker> drainer_;
};

// --- Derived views. ------------------------------------------------------

/// Latency breakdown of one chain hop, aggregated over all sampled
/// packets that crossed it.
struct HopBreakdown {
  std::uint32_t site{0};      ///< Node span site.
  std::uint32_t position{0};  ///< Ring position.
  rt::Histogram hop_ns;       ///< Node ingress -> egress.
  rt::Histogram process_ns;   ///< Middlebox packet transaction.
  rt::Histogram apply_ns;     ///< Piggyback log application.
  rt::Histogram transit_ns;   ///< Preceding link enter -> exit.
};

/// Per-hop latency-breakdown histograms derived from span records,
/// ordered by ring position.
std::vector<HopBreakdown> per_hop_breakdown(const std::vector<SpanRecord>& records);

/// One position's recovery timeline (paper Fig. 13 decomposition, but
/// phase-accurate: every timestamp comes from the component that lived
/// the phase). Timestamps are absolute ns; 0 = phase not observed.
struct RecoveryTimeline {
  std::uint32_t position{0};
  std::uint64_t fail_ns{0};
  std::uint64_t detect_ns{0};
  std::uint64_t spawn_ns{0};
  std::uint64_t init_ack_ns{0};
  std::uint64_t fetch_start_ns{0};
  std::uint64_t fetch_done_ns{0};
  std::uint64_t reroute_ns{0};

  /// Every phase observed, in non-decreasing order.
  bool complete() const noexcept;

  std::uint64_t time_to_detect_ns() const noexcept {
    return detect_ns >= fail_ns ? detect_ns - fail_ns : 0;
  }
  std::uint64_t time_to_fetch_ns() const noexcept {
    return fetch_done_ns >= fetch_start_ns ? fetch_done_ns - fetch_start_ns : 0;
  }
  std::uint64_t time_to_reroute_ns() const noexcept {
    return reroute_ns >= detect_ns ? reroute_ns - detect_ns : 0;
  }
  std::uint64_t total_ns() const noexcept {
    return reroute_ns >= fail_ns ? reroute_ns - fail_ns : 0;
  }
};

/// Recovery timelines derived from span records, one per recovery trace,
/// ordered by position. For each phase the first event after the previous
/// phase is taken.
std::vector<RecoveryTimeline> recovery_timelines(
    const std::vector<SpanRecord>& records);

/// NACK round trips in ns: each kNackSent paired with the next
/// kNackApplied at the same node for the same middlebox. A NACK sent
/// again before its reply lands pairs with that reply too; one no reply
/// follows is left out.
rt::Histogram nack_round_trips(const std::vector<SpanRecord>& records);

}  // namespace sfc::obs
