#include "core/buffer.hpp"

#include <algorithm>
#include <utility>

#include "obs/span.hpp"
#include "runtime/clock.hpp"

namespace sfc::ftc {
namespace {

inline void span_event(obs::Registry* reg, std::uint64_t trace_id,
                       obs::SpanKind kind) noexcept {
  if (auto* sink = reg->span_sink()) {
    sink->record(obs::SpanRecord{trace_id, rt::now_ns(), 0,
                                 obs::kSpanSiteBuffer, kind});
  }
}

}  // namespace

EgressBuffer::EgressBuffer(pkt::PacketPool& pool, net::Port& egress,
                           FeedbackChannel& feedback, obs::Registry* registry)
    : pool_(pool), egress_(egress), feedback_(feedback) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<obs::Registry>();
    registry = own_registry_.get();
  }
  registry_ = registry;
  registry->name_span_site(obs::kSpanSiteBuffer, "egress-buffer");
  submitted_ = &registry->counter("buffer.submitted");
  released_ = &registry->counter("buffer.released");
  released_immediately_ = &registry->counter("buffer.released_immediately");
  control_consumed_ = &registry->counter("buffer.control_consumed");
  held_gauge_ = &registry->gauge("buffer.held");
  high_water_ = &registry->gauge("buffer.high_water");
}

BufferStats EgressBuffer::stats() const {
  BufferStats s;
  s.submitted = submitted_->value();
  s.released = released_->value();
  s.released_immediately = released_immediately_->value();
  s.control_consumed = control_consumed_->value();
  s.high_water = static_cast<std::uint64_t>(high_water_->value());
  return s;
}

bool EgressBuffer::is_covered(const Held& held) const {
  for (const auto& pending : held.pending) {
    if (pending.mbox >= known_commits_.size() ||
        !known_commits_[pending.mbox].covers(pending.dep)) {
      return false;
    }
  }
  return true;
}

void EgressBuffer::learn_commit(MboxId mbox, const MaxVector& max) {
  // MboxIds are ring positions; one beyond any chain is a corrupt record,
  // not a reason to grow without bound.
  if (mbox >= kMaxMboxes) return;
  if (mbox >= known_commits_.size()) known_commits_.resize(mbox + 1);
  known_commits_[mbox].merge(max);
}

EgressBuffer::Held& EgressBuffer::push_held() {
  if (size_ == ring_.size()) {
    // Full: double the ring, oldest entry first.
    std::vector<Held> grown(std::max<std::size_t>(16, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) grown[i] = std::move(slot(i));
    ring_.swap(grown);
    head_ = 0;
  }
  return slot(size_++);
}

void EgressBuffer::stage_release_locked(pkt::Packet* p) {
  if (p->anno().trace_id != 0) {
    span_event(registry_, p->anno().trace_id, obs::SpanKind::kBufferRelease);
  }
  release_stage_[n_stage_++] = p;
  if (n_stage_ == kMaxBurst) flush_releases_locked();
}

void EgressBuffer::release_locked(Held& held) {
  stage_release_locked(held.packet);
  held.packet = nullptr;  // Tombstone until it reaches the front.
  held.pending.clear();
  --live_;
}

void EgressBuffer::release_prefix_locked() {
  // Commit vectors advance cumulatively per partition and packets arrive
  // roughly in commit order, so prefix scanning is O(1) amortized where a
  // full scan per submit would be quadratic at saturation.
  while (size_ != 0) {
    Held& front = slot(0);
    if (front.packet != nullptr) {
      if (!is_covered(front)) break;
      release_locked(front);
    }
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }
}

void EgressBuffer::release_all_covered_locked() {
  for (std::size_t i = 0; i < size_; ++i) {
    Held& held = slot(i);
    if (held.packet != nullptr && is_covered(held)) release_locked(held);
  }
  release_prefix_locked();  // Pops the tombstones now at the front.
}

void EgressBuffer::flush_releases_locked() {
  if (n_stage_ == 0) return;
  // The egress link is drained by the measurement sink; block rather than
  // lose a released packet. One bulk send covers the common case; only
  // stragglers (egress momentarily full) fall back to blocking sends, and
  // a send that still fails (the sink stopped) frees its packet.
  const std::size_t sent = egress_.send_burst({release_stage_, n_stage_});
  for (std::size_t i = sent; i < n_stage_; ++i) {
    if (!egress_.send_blocking(release_stage_[i])) {
      pool_.free_raw(release_stage_[i]);
    }
  }
  released_->add(n_stage_);
  n_stage_ = 0;
}

FeedbackLogs EgressBuffer::ship_locked() {
  flush_releases_locked();
  held_gauge_->set(static_cast<std::int64_t>(live_));
  if (feedback_stage_.empty()) return {};
  return std::exchange(feedback_stage_, FeedbackLogs{});
}

void EgressBuffer::push_feedback(FeedbackLogs&& logs) {
  if (!logs.empty()) feedback_.push(std::move(logs));
}

void EgressBuffer::absorb(std::span<const CommitVector> commits) {
  LockGuard lock(mutex_);
  for (const auto& c : commits) learn_commit(c.mbox, c.max);
}

void EgressBuffer::submit_wire(pkt::Packet* p, PiggybackView& v,
                               bool in_burst) {
  // Cache: the packet leaves our hands below (freed for control packets,
  // sent for released ones).
  const bool is_control = p->anno().is_control;
  const std::uint64_t trace_id = p->anno().trace_id;
  FeedbackLogs shipped;
  {
    LockGuard lock(mutex_);
    submitted_->inc();
    Held held{p, {}};
    if (v.ok()) {
      // Commit vectors end their journey here (tail -> ... -> buffer,
      // paper §5.1): absorb the release knowledge they carry.
      for (std::size_t i = 0; i < v.commit_count(); ++i) {
        MaxVector max;
        const MboxId mbox = v.commit(i, max);
        learn_commit(mbox, max);
      }
      // Every log still on board travels on toward its wrap-around tail:
      // its record bytes outlive the packet on the feedback channel. Only
      // those logs feed back, so the idle propagation loop ends once every
      // log is stripped at its tail. A burst's records stage into storage
      // the head handed back.
      if (v.log_count() != 0 && feedback_stage_.bytes.capacity() == 0) {
        feedback_stage_ = feedback_.spare();
      }
      for (std::size_t i = 0; i < v.log_count(); ++i) {
        const WireLog log = v.log(i);
        if (!is_control) held.pending.push_back({log.mbox, log.dep});
        feedback_stage_.add_record(v.log_bytes(i));
      }
      v.strip_tail();  // The packet leaves the chain bare.
    }

    if (is_control) {
      control_consumed_->inc();
      pool_.free_raw(p);
    } else if (held.pending.empty() || is_covered(held)) {
      // Nothing outstanding (e.g. read-only path all along the chain, or
      // commits already caught up): release without holding.
      stage_release_locked(p);
      released_immediately_->inc();
    } else {
      if (trace_id != 0) {
        span_event(registry_, trace_id, obs::SpanKind::kBufferHold);
      }
      push_held() = std::move(held);
      ++live_;
      high_water_->set(std::max<std::int64_t>(
          high_water_->value(), static_cast<std::int64_t>(live_)));
    }

    // A non-prefix-eligible hold is released at the latest by the next
    // commit for its partitions, or by the periodic full scan on control
    // packets.
    release_prefix_locked();
    if (is_control && ++full_scans_ % 4 == 0) release_all_covered_locked();
    if (!in_burst) shipped = ship_locked();
  }
  push_feedback(std::move(shipped));
}

void EgressBuffer::end_burst() {
  FeedbackLogs shipped;
  {
    LockGuard lock(mutex_);
    shipped = ship_locked();
  }
  push_feedback(std::move(shipped));
}

void EgressBuffer::release_eligible() {
  FeedbackLogs shipped;
  {
    LockGuard lock(mutex_);
    release_all_covered_locked();
    shipped = ship_locked();
  }
  push_feedback(std::move(shipped));
}

}  // namespace sfc::ftc
