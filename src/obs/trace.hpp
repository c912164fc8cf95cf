// Observability: bounded per-node protocol event trace.
//
// A fixed-capacity ring of typed events (park/unpark, NACK sent/served,
// failure, recovery phases) with timestamps, so protocol tests and
// post-mortems can assert event *sequences* rather than only counts.
// Events are protocol-rate (loss, recovery, idle propagation), not
// per-packet, so a mutex-protected ring is cheap enough and keeps
// snapshots consistent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "base/mutex.hpp"
#include "runtime/common.hpp"

namespace sfc::obs {

enum class Event : std::uint8_t {
  kPacketParked,       ///< a = mbox blocked on, b = parked count after.
  kPacketUnparked,     ///< a = mbox that unblocked, b = parked count after.
  kNackSent,           ///< a = mbox, b = target node.
  kNackServed,         ///< a = mbox, b = logs shipped.
  kNackApplied,        ///< a = mbox, b = logs applied from the response.
  kFailure,            ///< Node crash-stopped (fail-stop). a = node id.
  kFailureDetected,    ///< Orchestrator: a = node id, b = position.
  kRecoverySpawn,      ///< Orchestrator: a = new node id, b = position.
  kRecoveryInit,       ///< Replica got its fetch plan. a = #sources.
  kRecoveryInitAck,    ///< Orchestrator saw the ack. a = node id.
  kRecoveryFetchStart, ///< Replica: a = mbox, b = source node.
  kRecoveryFetchDone,  ///< Replica: a = mbox, b = ok flag.
  kRecoveryDone,       ///< Replica finished. a = ok flag.
  kRecoveryRerouted,   ///< Orchestrator steered traffic. a = node id,
                       ///< b = position.
};

const char* to_string(Event e) noexcept;

struct TraceEvent {
  std::uint64_t ts_ns{0};
  Event type{Event::kPacketParked};
  std::uint64_t a{0};
  std::uint64_t b{0};
};

class EventTrace : rt::NonCopyable {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit EventTrace(std::size_t capacity = kDefaultCapacity);

  /// Records one event (timestamped now). Oldest events are evicted once
  /// the ring is full.
  void emit(Event type, std::uint64_t a = 0, std::uint64_t b = 0) noexcept;

  /// Events still in the ring, oldest first.
  std::vector<TraceEvent> snapshot() const;

  /// Total events ever emitted (including evicted ones).
  std::uint64_t total_emitted() const;

  /// Events evicted by the bounded ring.
  std::uint64_t dropped() const;

  /// True when the retained events contain @p types as a subsequence (in
  /// order, gaps allowed) — the protocol-test assertion primitive.
  bool contains_sequence(std::initializer_list<Event> types) const;

  /// Retained events of @p type, oldest first.
  std::vector<TraceEvent> events_of(Event type) const;

  void clear();

 private:
  mutable Mutex mutex_{ranks::kLeaf, "obs.trace"};
  std::vector<TraceEvent> ring_ SFC_GUARDED_BY(mutex_);
  std::size_t capacity_;
  /// Total emitted; ring_[next_ % capacity_] is the next write slot once
  /// the ring is full.
  std::uint64_t next_ SFC_GUARDED_BY(mutex_){0};
};

}  // namespace sfc::obs
