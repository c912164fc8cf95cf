#include "net/link.hpp"

#include <algorithm>
#include <thread>

#include "obs/prof.hpp"
#include "obs/span.hpp"
#include "runtime/clock.hpp"
#include "runtime/worker.hpp"

namespace sfc::net {
namespace {

/// Cold path of the tracing branch: call only after trace_id != 0.
inline void span_event(obs::Registry* reg, std::uint32_t site,
                       std::uint64_t trace_id, obs::SpanKind kind,
                       std::uint64_t a = 0) noexcept {
  if (auto* sink = reg->span_sink()) {
    sink->record(obs::SpanRecord{trace_id, rt::now_ns(), a, site, kind});
  }
}

/// kLinkEnter stamped at `ts_ns`. The fast path takes the time before the
/// push: once the packet is in the queue the consumer can pop it and record
/// later spans of the trace (link exit, sink receive) before this call.
inline void span_enter(obs::Registry* reg, std::uint32_t site,
                       std::uint64_t trace_id, std::uint64_t ts_ns) noexcept {
  if (auto* sink = reg->span_sink()) {
    sink->record(
        obs::SpanRecord{trace_id, ts_ns, 0, site, obs::SpanKind::kLinkEnter});
  }
}

}  // namespace

Link::Link(pkt::PacketPool& pool, LinkConfig cfg, obs::Registry* registry,
           std::string name, std::uint32_t span_site)
    : pool_(pool),
      cfg_(cfg),
      fast_path_(cfg.delay_ns == 0 && cfg.loss == 0.0 && cfg.reorder == 0.0),
      span_site_(span_site),
      fast_queue_(cfg.capacity),
      delay_ns_(cfg.delay_ns) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<obs::Registry>();
    registry = own_registry_.get();
  }
  registry_ = registry;
  if (span_site_ != 0) registry->name_span_site(span_site_, "link:" + name);
  const obs::Labels labels{{"link", std::move(name)}};
  sent_ = &registry->counter("link.sent", labels);
  delivered_ = &registry->counter("link.delivered", labels);
  dropped_loss_ = &registry->counter("link.dropped_loss", labels);
  dropped_full_ = &registry->counter("link.dropped_full", labels);
  send_retries_ = &registry->counter("link.send_retries", labels);
}

bool Link::lossy_drop() noexcept {
  if (cfg_.loss <= 0.0) return false;
  // Deterministic pseudo-random draw: hash a shared counter so concurrent
  // senders need no locked RNG and runs are reproducible.
  const std::uint64_t draw = rt::splitmix64(
      loss_counter_.fetch_add(1, std::memory_order_relaxed) ^ cfg_.seed);
  return static_cast<double>(draw >> 11) * 0x1.0p-53 < cfg_.loss;
}

bool Link::send(pkt::Packet* p) {
  // Cache before the push: ownership transfers with the pointer.
  const std::uint64_t trace_id = p->anno().trace_id;

  if (fast_path_) {
    const std::uint64_t enter_ns = trace_id != 0 ? rt::now_ns() : 0;
    if (!fast_queue_.try_push(std::move(p))) {
      dropped_full_->inc();
      return false;
    }
    sent_->inc();
    if (trace_id != 0) span_enter(registry_, span_site_, trace_id, enter_ns);
    return true;
  }

  if (lossy_drop()) {
    // Wire drop: the link accepted the packet, so it counts as sent —
    // after a drain, sent == delivered + dropped_loss holds on every path.
    sent_->inc();
    dropped_loss_->inc();
    pool_.free_raw(p);
    if (trace_id != 0) {
      span_event(registry_, span_site_, trace_id, obs::SpanKind::kLinkDrop);
    }
    return true;  // The sender cannot observe wire loss.
  }

  std::uint64_t deliver_at =
      rt::now_ns() + delay_ns_.load(std::memory_order_relaxed);
  if (cfg_.reorder > 0.0) {
    const std::uint64_t draw = rt::splitmix64(
        reorder_counter_.fetch_add(1, std::memory_order_relaxed) ^ ~cfg_.seed);
    if (static_cast<double>(draw >> 11) * 0x1.0p-53 < cfg_.reorder) {
      deliver_at += cfg_.reorder_extra_ns;
      if (trace_id != 0) {
        span_event(registry_, span_site_, trace_id, obs::SpanKind::kLinkHold,
                   cfg_.reorder_extra_ns);
      }
    }
  }

  LockGuard lock(mutex_);
  if (timed_queue_.size() >= cfg_.capacity) {
    dropped_full_->inc();
    return false;
  }
  timed_queue_.push_back(Timed{p, deliver_at});
  sent_->inc();
  if (trace_id != 0) {
    span_event(registry_, span_site_, trace_id, obs::SpanKind::kLinkEnter);
  }
  return true;
}

bool Link::send_blocking(pkt::Packet* p, std::uint64_t timeout_ns) {
  const std::uint64_t deadline = rt::now_ns() + timeout_ns;
  std::uint64_t retries = 0;
  for (unsigned backoff = 1; !send(p); backoff = std::min(backoff * 2, 1024u)) {
    if (rt::now_ns() > deadline || rt::stop_requested()) {
      send_retries_->add(retries);
      obs::prof_count(obs::ProfCounter::kSendRetry, retries);
      return false;
    }
    ++retries;
    // Bounded exponential backoff: short cpu_relax bursts keep latency low
    // when the consumer is about to free a slot; past ~64 spins the queue
    // is genuinely backed up and yielding hands the core to the drainer.
    if (backoff <= 64) {
      for (unsigned i = 0; i < backoff; ++i) rt::cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  if (retries != 0) {
    send_retries_->add(retries);
    obs::prof_count(obs::ProfCounter::kSendRetry, retries);
  }
  return true;
}

std::size_t Link::send_burst(std::span<pkt::Packet*> ps) {
  if (ps.empty()) return 0;
  obs::ProfStageTimer pt{obs::prof_slot(), obs::ProfStage::kLinkSend,
                         ps.size()};
  if (fast_path_) {
    // The packets change hands at the push: the consumer may pop, free and
    // recycle a packet before this function returns, so trace ids and the
    // enter time must be snapshotted BEFORE try_push_n (same ordering as
    // send()).
    constexpr std::size_t kChunk = 256;
    std::uint64_t traced[kChunk];
    std::size_t total = 0;
    while (total < ps.size()) {
      const auto chunk =
          ps.subspan(total, std::min(kChunk, ps.size() - total));
      bool any_traced = false;
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        traced[i] = chunk[i]->anno().trace_id;
        any_traced |= traced[i] != 0;
      }
      const std::uint64_t enter_ns = any_traced ? rt::now_ns() : 0;
      const std::size_t n = fast_queue_.try_push_n(chunk);
      if (n == 0) {
        // The head packet found the queue full.
        if (total == 0) dropped_full_->inc();
        return total;
      }
      sent_->add(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (SFC_UNLIKELY(traced[i] != 0)) {
          span_enter(registry_, span_site_, traced[i], enter_ns);
        }
      }
      total += n;
      if (n < chunk.size()) break;
    }
    return total;
  }
  // Timed path: per-packet semantics (each packet takes its own loss and
  // reorder draw, in send order).
  std::size_t n = 0;
  while (n < ps.size() && send(ps[n])) ++n;
  return n;
}

std::size_t Link::poll_burst(pkt::Packet** out, std::size_t max) {
  if (max == 0) return 0;
  // Attribute only productive polls (n > 0): empty polls are idle spinning,
  // not per-packet cost, and would swamp the link_poll budget row.
  const std::uint64_t prof_t0 =
      SFC_UNLIKELY(obs::hot_profiler() != nullptr) ? rt::rdtsc() : 0;
  if (fast_path_) {
    const std::size_t n = fast_queue_.try_pop_n(out, max);
    if (n == 0) return 0;
    if (SFC_UNLIKELY(prof_t0 != 0)) {
      if (auto* slot = obs::prof_slot()) {
        slot->add(obs::ProfStage::kLinkPoll, rt::rdtsc() - prof_t0, n);
      }
    }
    delivered_->add(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (SFC_UNLIKELY(out[i]->anno().trace_id != 0)) {
        span_event(registry_, span_site_, out[i]->anno().trace_id,
                   obs::SpanKind::kLinkExit);
      }
    }
    return n;
  }

  LockGuard lock(mutex_);
  const std::uint64_t now = rt::now_ns();
  std::size_t n = 0;
  // Drain every currently deliverable packet (delivery semantics identical
  // to N poll() calls: ready head packets in order, with reordered ones
  // skipped over until their extra delay elapses).
  for (auto it = timed_queue_.begin(); n < max && it != timed_queue_.end();) {
    if (it->deliver_at_ns <= now) {
      out[n++] = it->packet;
      it = timed_queue_.erase(it);
      continue;
    }
    if (cfg_.reorder <= 0.0) break;  // FIFO queue: head not ready, none are.
    ++it;
  }
  if (n == 0) return 0;
  if (SFC_UNLIKELY(prof_t0 != 0)) {
    if (auto* slot = obs::prof_slot()) {
      slot->add(obs::ProfStage::kLinkPoll, rt::rdtsc() - prof_t0, n);
    }
  }
  delivered_->add(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (out[i]->anno().trace_id != 0) {
      span_event(registry_, span_site_, out[i]->anno().trace_id,
                 obs::SpanKind::kLinkExit);
    }
  }
  return n;
}

pkt::Packet* Link::poll() {
  if (fast_path_) {
    auto p = fast_queue_.try_pop();
    if (!p) return nullptr;
    delivered_->inc();
    if ((*p)->anno().trace_id != 0) {
      span_event(registry_, span_site_, (*p)->anno().trace_id,
                 obs::SpanKind::kLinkExit);
    }
    return *p;
  }

  LockGuard lock(mutex_);
  const std::uint64_t now = rt::now_ns();
  // Deliver the first ready packet; reordered packets (larger deliver_at)
  // are skipped over, which is exactly the reordering a multi-path fabric
  // produces.
  for (auto it = timed_queue_.begin(); it != timed_queue_.end(); ++it) {
    if (it->deliver_at_ns <= now) {
      pkt::Packet* p = it->packet;
      timed_queue_.erase(it);
      delivered_->inc();
      if (p->anno().trace_id != 0) {
        span_event(registry_, span_site_, p->anno().trace_id,
                   obs::SpanKind::kLinkExit);
      }
      return p;
    }
    // Packets are queued in send order; if the head is not ready, a later
    // packet can only be ready when reordering shortened... it cannot.
    // Only reordered (lengthened) head packets let successors pass.
    if (cfg_.reorder <= 0.0) break;
  }
  return nullptr;
}

LinkStats Link::stats() const noexcept {
  return LinkStats{sent_->value(), delivered_->value(), dropped_loss_->value(),
                   dropped_full_->value()};
}

bool Link::drained() const noexcept {
  if (fast_path_) return fast_queue_.size_approx() == 0;
  LockGuard lock(mutex_);
  return timed_queue_.empty();
}

}  // namespace sfc::net
