#include "obs/trace.hpp"

#include <algorithm>

#include "runtime/clock.hpp"

namespace sfc::obs {

const char* to_string(Event e) noexcept {
  switch (e) {
    case Event::kPacketParked: return "park";
    case Event::kPacketUnparked: return "unpark";
    case Event::kNackSent: return "nack_sent";
    case Event::kNackServed: return "nack_served";
    case Event::kNackApplied: return "nack_applied";
    case Event::kFailure: return "failure";
    case Event::kFailureDetected: return "failure_detected";
    case Event::kRecoverySpawn: return "recovery_spawn";
    case Event::kRecoveryInit: return "recovery_init";
    case Event::kRecoveryInitAck: return "recovery_init_ack";
    case Event::kRecoveryFetchStart: return "recovery_fetch_start";
    case Event::kRecoveryFetchDone: return "recovery_fetch_done";
    case Event::kRecoveryDone: return "recovery_done";
    case Event::kRecoveryRerouted: return "recovery_rerouted";
  }
  return "?";
}

EventTrace::EventTrace(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void EventTrace::emit(Event type, std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t now = rt::now_ns();
  LockGuard lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(TraceEvent{now, type, a, b});
  } else {
    ring_[next_ % capacity_] = TraceEvent{now, type, a, b};
  }
  ++next_;
}

std::vector<TraceEvent> EventTrace::snapshot() const {
  LockGuard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Oldest-first: the next write slot holds the oldest retained event.
    const std::size_t start = next_ % capacity_;
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(start + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t EventTrace::total_emitted() const {
  LockGuard lock(mutex_);
  return next_;
}

std::uint64_t EventTrace::dropped() const {
  LockGuard lock(mutex_);
  return next_ > capacity_ ? next_ - capacity_ : 0;
}

bool EventTrace::contains_sequence(std::initializer_list<Event> types) const {
  const auto events = snapshot();
  auto want = types.begin();
  for (const auto& e : events) {
    if (want == types.end()) break;
    if (e.type == *want) ++want;
  }
  return want == types.end();
}

std::vector<TraceEvent> EventTrace::events_of(Event type) const {
  auto events = snapshot();
  std::erase_if(events, [type](const TraceEvent& e) { return e.type != type; });
  return events;
}

void EventTrace::clear() {
  LockGuard lock(mutex_);
  ring_.clear();
  next_ = 0;
}

}  // namespace sfc::obs
