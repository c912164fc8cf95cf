#include "core/buffer.hpp"

#include <algorithm>
#include <bit>
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

bool EgressBuffer::is_covered(std::span<const Pending> pending) const {
  for (const Pending& w : pending) {
    if (w.mbox >= known_commits_.size() ||
        known_commits_[w.mbox].seq[w.partition] < w.seq) {
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
  --live_;
}

void EgressBuffer::release_prefix_locked() {
  // Commit vectors advance cumulatively per partition and packets arrive
  // roughly in commit order, so prefix scanning is O(1) amortized where a
  // full scan per submit would be quadratic at saturation.
  while (size_ != 0) {
    Held& front = slot(0);
    if (front.packet != nullptr) {
      if (!is_covered(front.pending)) break;
      release_locked(front);
    }
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }
}

void EgressBuffer::release_all_covered_locked() {
  for (std::size_t i = 0; i < size_; ++i) {
    Held& held = slot(i);
    if (held.packet != nullptr && is_covered(held.pending)) {
      release_locked(held);
    }
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

void EgressBuffer::submit_wire(Batch& batch, pkt::Packet* p,
                               PiggybackView& v) {
  if (batch.empty()) open_batches_.fetch_add(1, std::memory_order_acq_rel);
  const bool is_control = p->anno().is_control;
  const auto first = static_cast<std::uint32_t>(batch.pending_.size());
  if (v.ok()) {
    // Commit vectors end their journey here (tail -> ... -> buffer, paper
    // §5.1): the burst's merge is what end_burst() learns.
    for (std::size_t i = 0; i < v.commit_count(); ++i) {
      CommitVector c;
      c.mbox = v.commit(i, c.max);
      CommitVector* known = nullptr;
      for (CommitVector& k : batch.commits_) {
        if (k.mbox == c.mbox) known = &k;
      }
      if (known != nullptr) {
        known->max.merge(c.max);
      } else {
        batch.commits_.push_back(c);
      }
    }
    // Every log still on board travels on toward its wrap-around tail:
    // its record bytes outlive the packet on the feedback channel. Only
    // those logs feed back, so the idle propagation loop ends once every
    // log is stripped at its tail. A burst's records stage into storage
    // the head handed back.
    if (v.log_count() != 0 && batch.feedback_.bytes.capacity() == 0) {
      batch.feedback_ = feedback_.spare();
    }
    for (std::size_t i = 0; i < v.log_count(); ++i) {
      if (!is_control) {
        const WireLog log = v.log(i);
        for (std::uint64_t m = log.dep.mask; m != 0; m &= m - 1) {
          const auto part = static_cast<std::uint32_t>(std::countr_zero(m));
          batch.pending_.push_back(Pending{log.dep.seq[part], log.mbox, part});
        }
      }
      batch.feedback_.add_record(v.log_bytes(i));
    }
    v.strip_tail();  // The packet leaves the chain bare.
  }
  if (is_control) {
    ++batch.n_control_;
    pool_.free_raw(p);
    return;
  }
  batch.entries_.push_back(Batch::Entry{
      p, first, static_cast<std::uint32_t>(batch.pending_.size()) - first});
}

void EgressBuffer::end_burst(Batch& batch) {
  if (batch.empty()) return;
  FeedbackLogs shipped = std::move(batch.feedback_);
  batch.feedback_.clear();
  {
    LockGuard lock(mutex_);
    submitted_->add(batch.entries_.size() + batch.n_control_);
    if (batch.n_control_ != 0) control_consumed_->add(batch.n_control_);
    // Learn first: a commit vector certifies f+1 replication whenever the
    // buffer reads it, so a packet it covers may leave even if the commit
    // arrived on a later packet of the same burst.
    for (const CommitVector& c : batch.commits_) learn_commit(c.mbox, c.max);
    // Older holds the commits now cover leave ahead of the burst.
    release_prefix_locked();
    std::size_t most_held = live_;
    std::uint64_t immediate = 0;
    for (const Batch::Entry& e : batch.entries_) {
      const std::span<const Pending> pending{batch.pending_.data() + e.first,
                                             e.count};
      if (is_covered(pending)) {
        // Nothing outstanding (e.g. read-only path all along the chain, or
        // commits already caught up): release without holding.
        stage_release_locked(e.packet);
        ++immediate;
        continue;
      }
      if (e.packet->anno().trace_id != 0) {
        span_event(registry_, e.packet->anno().trace_id,
                   obs::SpanKind::kBufferHold);
      }
      Held& held = push_held();
      held.packet = e.packet;
      held.pending.clear();
      for (const Pending& w : pending) held.pending.push_back(w);
      most_held = std::max(most_held, ++live_);
    }
    // A hold the prefix release cannot reach leaves at the latest by the
    // full scan every fourth control packet.
    if (batch.n_control_ != 0) {
      const std::uint64_t scans = full_scans_;
      full_scans_ += batch.n_control_;
      if (full_scans_ / 4 != scans / 4) release_all_covered_locked();
    }
    if (immediate != 0) released_immediately_->add(immediate);
    flush_releases_locked();
    held_gauge_->set(static_cast<std::int64_t>(live_));
    if (static_cast<std::int64_t>(most_held) > high_water_->value()) {
      high_water_->set(static_cast<std::int64_t>(most_held));
    }
  }
  batch.entries_.clear();
  batch.pending_.clear();
  batch.commits_.clear();
  batch.n_control_ = 0;
  open_batches_.fetch_sub(1, std::memory_order_acq_rel);
  if (!shipped.empty()) feedback_.push(std::move(shipped));
}

void EgressBuffer::learn(MboxId mbox, const MaxVector& max) {
  LockGuard lock(mutex_);
  learn_commit(mbox, max);
  release_prefix_locked();
  flush_releases_locked();
  held_gauge_->set(static_cast<std::int64_t>(live_));
}

void EgressBuffer::release_eligible() {
  LockGuard lock(mutex_);
  release_all_covered_locked();
  flush_releases_locked();
  held_gauge_->set(static_cast<std::int64_t>(live_));
}

}  // namespace sfc::ftc
