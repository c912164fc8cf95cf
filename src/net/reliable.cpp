#include "net/reliable.hpp"

#include <algorithm>
#include <thread>

#include "obs/prof.hpp"
#include "runtime/clock.hpp"
#include "runtime/worker.hpp"

namespace sfc::net {
namespace {

constexpr std::size_t kChunk = 256;  ///< Wire drain batch (stack array).

std::size_t clamp_window(std::size_t w) {
  w = std::clamp<std::size_t>(w, 2, 1024);
  return rt::is_pow2(w) ? w : rt::next_pow2(w);
}

}  // namespace

ReliableChannel::ReliableChannel(pkt::PacketPool& pool, LinkConfig link_cfg,
                                 ReliableConfig cfg, obs::Registry* registry,
                                 std::string name, std::uint32_t span_site)
    : pool_(pool),
      cfg_(cfg),
      window_(clamp_window(cfg.window)),
      name_(name),
      ssthresh_(static_cast<double>(window_)),
      ack_delay_ns_(link_cfg.delay_ns) {
  if (registry == nullptr) {
    own_registry_ = std::make_unique<obs::Registry>();
    registry = own_registry_.get();
  }
  registry_ = registry;
  // Stash holds exactly one live copy per window slot; retransmit clones
  // come from the app pool (they escape the channel's lifetime).
  stash_pool_ = std::make_unique<pkt::PacketPool>(window_);
  wire_ = std::make_unique<Link>(pool, link_cfg, registry, name + ".wire",
                                 span_site);
  tx_slots_.resize(window_);
  rx_slots_.assign(window_, nullptr);
  cwnd_ = cfg_.congestion_avoidance ? 2.0 : static_cast<double>(window_);

  hot_.snd_nxt.store(cfg_.initial_seq, std::memory_order_relaxed);
  hot_.snd_una.store(cfg_.initial_seq, std::memory_order_relaxed);
  hot_.rcv_nxt.store(cfg_.initial_seq, std::memory_order_relaxed);
  hot_.rto_ns.store(
      std::clamp(cfg_.rto_initial_ns, cfg_.rto_min_ns, cfg_.rto_max_ns),
      std::memory_order_relaxed);
  hot_.cwnd_pkts.store(static_cast<std::uint32_t>(cwnd_),
                       std::memory_order_relaxed);

  const obs::Labels labels{{"link", name_}};
  sent_ = &registry->counter("rel.sent", labels);
  delivered_ = &registry->counter("rel.delivered", labels);
  rejected_ = &registry->counter("rel.rejected", labels);
  retransmits_ = &registry->counter("rel.retransmits", labels);
  timeouts_ = &registry->counter("rel.timeouts", labels);
  fast_retransmits_ = &registry->counter("rel.fast_retransmits", labels);
  dup_acks_ = &registry->counter("rel.dup_acks", labels);
  acks_sent_ = &registry->counter("rel.acks_sent", labels);
  acks_dropped_ = &registry->counter("rel.acks_dropped", labels);
  rtt_samples_ = &registry->counter("rel.rtt_samples", labels);
  rx_duplicates_ = &registry->counter("rel.rx_duplicates", labels);

  registry->gauge_fn("rel.srtt_ns", labels, [this] {
    return static_cast<double>(hot_.srtt_ns.load(std::memory_order_relaxed));
  });
  registry->gauge_fn("rel.rttvar_ns", labels, [this] {
    return static_cast<double>(hot_.rttvar_ns.load(std::memory_order_relaxed));
  });
  registry->gauge_fn("rel.rto_ns", labels, [this] {
    return static_cast<double>(hot_.rto_ns.load(std::memory_order_relaxed));
  });
  registry->gauge_fn("rel.cwnd", labels, [this] {
    return static_cast<double>(hot_.cwnd_pkts.load(std::memory_order_relaxed));
  });
  registry->gauge_fn("rel.in_flight", labels, [this] {
    return static_cast<double>(hot_.in_flight.load(std::memory_order_relaxed));
  });
  registry->histogram_fn("rel.tx_occupancy", labels, [this] {
    LockGuard lock(mutex_);
    return occupancy_hist_;
  });
  registry->histogram_fn("rel.rtt_sample_ns", labels, [this] {
    LockGuard lock(mutex_);
    return rtt_hist_;
  });
}

ReliableChannel::~ReliableChannel() {
  // Drop snapshot callbacks before members die (counters are plain value
  // cells and may outlive us in the registry).
  registry_->remove_matching("link", name_);
  {
    LockGuard lock(mutex_);
    for (TxSlot& slot : tx_slots_) {
      if (slot.copy != nullptr) stash_pool_->free_raw(slot.copy);
      slot.copy = nullptr;
    }
    for (pkt::Packet*& p : rx_slots_) {
      if (p != nullptr) pool_.free_raw(p);
      p = nullptr;
    }
    while (!rx_ready_.empty()) {
      pool_.free_raw(rx_ready_.front());
      rx_ready_.pop_front();
    }
  }
  // Undelivered wire packets drain back to their owning pools.
  pkt::Packet* rx[kChunk];
  while (true) {
    const std::size_t n = wire_->poll_burst(rx, kChunk);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) pool_.free_raw(rx[i]);
  }
}

void ReliableChannel::set_delay_ns(std::uint64_t delay_ns) noexcept {
  wire_->set_delay_ns(delay_ns);
  LockGuard lock(mutex_);
  ack_delay_ns_ = delay_ns;
}

std::uint64_t ReliableChannel::rto_ns() const noexcept {
  return hot_.rto_ns.load(std::memory_order_relaxed);
}
std::uint64_t ReliableChannel::srtt_ns() const noexcept {
  return hot_.srtt_ns.load(std::memory_order_relaxed);
}
std::uint64_t ReliableChannel::rttvar_ns() const noexcept {
  return hot_.rttvar_ns.load(std::memory_order_relaxed);
}
std::uint64_t ReliableChannel::retransmits() const noexcept {
  return retransmits_->value();
}
std::uint64_t ReliableChannel::timeouts() const noexcept {
  return timeouts_->value();
}
std::uint64_t ReliableChannel::fast_retransmits() const noexcept {
  return fast_retransmits_->value();
}
std::uint64_t ReliableChannel::dup_acks() const noexcept {
  return dup_acks_->value();
}

LinkStats ReliableChannel::stats() const noexcept {
  return LinkStats{sent_->value(), delivered_->value(), 0,
                   rejected_->value()};
}

bool ReliableChannel::drained() const noexcept {
  if (!wire_->drained()) return false;
  LockGuard lock(mutex_);
  return ack_wire_.empty() && rx_ready_.empty() &&
         hot_.rx_buffered.load(std::memory_order_relaxed) == 0 &&
         hot_.snd_una.load(std::memory_order_relaxed) ==
             hot_.snd_nxt.load(std::memory_order_relaxed);
}

std::size_t ReliableChannel::effective_window_locked() const noexcept {
  if (!cfg_.congestion_avoidance) return window_;
  const auto cw = static_cast<std::size_t>(cwnd_);
  return std::clamp<std::size_t>(cw, 1, window_);
}

void ReliableChannel::rtt_sample_locked(std::uint64_t sample_ns) {
  rtt_samples_->inc();
  rtt_hist_.record(sample_ns);
  // Jacobson/Karels in integer nanoseconds: srtt += err/8,
  // rttvar += (|err| - rttvar)/4, RTO = srtt + 4*rttvar, clamped.
  std::uint64_t srtt = hot_.srtt_ns.load(std::memory_order_relaxed);
  std::uint64_t rttvar = hot_.rttvar_ns.load(std::memory_order_relaxed);
  if (srtt == 0) {
    srtt = sample_ns;
    rttvar = sample_ns / 2;
  } else {
    const auto err = static_cast<std::int64_t>(sample_ns) -
                     static_cast<std::int64_t>(srtt);
    srtt = static_cast<std::uint64_t>(static_cast<std::int64_t>(srtt) +
                                      err / 8);
    const std::int64_t abs_err = err < 0 ? -err : err;
    rttvar = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(rttvar) +
        (abs_err - static_cast<std::int64_t>(rttvar)) / 4);
  }
  const std::uint64_t rto =
      std::clamp(srtt + 4 * rttvar, cfg_.rto_min_ns, cfg_.rto_max_ns);
  hot_.srtt_ns.store(srtt, std::memory_order_relaxed);
  hot_.rttvar_ns.store(rttvar, std::memory_order_relaxed);
  hot_.rto_ns.store(rto, std::memory_order_relaxed);
}

void ReliableChannel::process_ack_locked(const AckRec& ack,
                                         std::uint64_t now) {
  std::uint32_t una = hot_.snd_una.load(std::memory_order_relaxed);
  const std::uint32_t nxt = hot_.snd_nxt.load(std::memory_order_relaxed);
  // Timestamp-echo RTT sample: send -> arrival -> this ack reaching us.
  // Checked against the live slot so Karn's rule still holds if the
  // segment was retransmitted between the echo and now.
  if (ack.echo_tx_ns != 0) {
    const TxSlot& es = tx_slots_[slot_of(ack.echo_seq)];
    if (es.copy != nullptr && es.seq == ack.echo_seq && es.retx == 0 &&
        now > ack.echo_tx_ns) {
      rtt_sample_locked(now - ack.echo_tx_ns);
    }
  }
  if (seq_lt(una, ack.cum_nxt) && seq_leq(ack.cum_nxt, nxt)) {
    // Cumulative advance: release stash copies. RTT sampling happens via
    // the timestamp echo below, never from the cumulative ack itself — an
    // advance after a hole repair measures the recovery time, not the
    // path RTT, and feeding it back would run SRTT away to rto_max.
    std::uint32_t acked = 0;
    for (std::uint32_t s = una; seq_lt(s, ack.cum_nxt); ++s, ++acked) {
      TxSlot& slot = tx_slots_[slot_of(s)];
      if (slot.copy != nullptr) {
        stash_pool_->free_raw(slot.copy);
        slot.copy = nullptr;
      }
      slot.sacked = false;
    }
    una = ack.cum_nxt;
    hot_.snd_una.store(una, std::memory_order_relaxed);
    hot_.in_flight.store(nxt - una, std::memory_order_relaxed);
    hot_.backoff.store(0, std::memory_order_relaxed);
    dupack_run_ = 0;
    if (cfg_.congestion_avoidance) {
      // Slow start below ssthresh, then additive increase per acked
      // segment; growth capped at the flow-control window.
      for (std::uint32_t i = 0; i < acked; ++i) {
        cwnd_ += cwnd_ < ssthresh_ ? 1.0 : 1.0 / std::max(cwnd_, 1.0);
      }
      cwnd_ = std::min(cwnd_, static_cast<double>(window_));
      hot_.cwnd_pkts.store(static_cast<std::uint32_t>(cwnd_),
                           std::memory_order_relaxed);
    }
  } else if (ack.cum_nxt == una && una != nxt) {
    // Duplicate cumulative ack while data is outstanding.
    dup_acks_->inc();
    ++dupack_run_;
    if (dupack_run_ == cfg_.dupack_threshold) {
      retransmit_head_locked(now);
      fast_retransmits_->inc();
      if (cfg_.congestion_avoidance) {
        cwnd_ = std::max(cwnd_ / 2.0, 2.0);
        ssthresh_ = cwnd_;
        hot_.cwnd_pkts.store(static_cast<std::uint32_t>(cwnd_),
                             std::memory_order_relaxed);
      }
    }
  }
  // Selective acks: mark received-out-of-order segments. Enough SACKed
  // segments above the hole prove the hole is a loss, not reordering —
  // retransmit it immediately instead of waiting out the RTO (with
  // batched acks, one ack can carry all the evidence three classic dup
  // acks would).
  std::uint32_t sacked_above_hole = 0;
  for (std::uint32_t i = 0; i < 64 && ack.sack != 0; ++i) {
    if ((ack.sack & (1ULL << i)) == 0) continue;
    const std::uint32_t s = ack.cum_nxt + 1 + i;
    if (seq_leq(una, s) && seq_lt(s, nxt)) {
      tx_slots_[slot_of(s)].sacked = true;
      ++sacked_above_hole;
    }
  }
  if (sacked_above_hole >= cfg_.dupack_threshold && una != nxt) {
    TxSlot& head = tx_slots_[slot_of(una)];
    if (head.copy != nullptr && head.retx == 0) {
      retransmit_head_locked(now);
      fast_retransmits_->inc();
      if (cfg_.congestion_avoidance) {
        cwnd_ = std::max(cwnd_ / 2.0, 2.0);
        ssthresh_ = cwnd_;
        hot_.cwnd_pkts.store(static_cast<std::uint32_t>(cwnd_),
                             std::memory_order_relaxed);
      }
    }
  }
}

void ReliableChannel::retransmit_head_locked(std::uint64_t now) {
  const std::uint32_t una = hot_.snd_una.load(std::memory_order_relaxed);
  if (una == hot_.snd_nxt.load(std::memory_order_relaxed)) return;
  TxSlot& slot = tx_slots_[slot_of(una)];
  if (slot.copy == nullptr) return;
  // The clone comes from the APP pool, not the stash: once delivered it
  // is indistinguishable from an original and travels arbitrarily far
  // down the chain — it must not be owned by a pool whose lifetime is
  // tied to this channel. The stash owns only the window copies, which
  // never leave the channel.
  pkt::Packet* clone = pool_.alloc_raw();
  if (clone == nullptr) return;  // Pool exhausted; retry on next pump.
  slot.copy->clone_into(*clone);
  if (!wire_->send(clone)) {
    pool_.free_raw(clone);  // Wire full; retry on next pump.
    return;
  }
  slot.sent_ns = now;  // Restart the timer from this transmission.
  ++slot.retx;         // Karn: this segment no longer yields RTT samples.
  retransmits_->inc();
}

void ReliableChannel::check_rto_locked(std::uint64_t now) {
  const std::uint32_t una = hot_.snd_una.load(std::memory_order_relaxed);
  if (una == hot_.snd_nxt.load(std::memory_order_relaxed)) return;
  const TxSlot& head = tx_slots_[slot_of(una)];
  if (head.copy == nullptr) return;
  const std::uint32_t backoff = hot_.backoff.load(std::memory_order_relaxed);
  const std::uint64_t rto_eff =
      std::min(hot_.rto_ns.load(std::memory_order_relaxed) << backoff,
               cfg_.rto_max_ns);
  if (now - head.sent_ns < rto_eff) return;
  timeouts_->inc();
  retransmit_head_locked(now);
  hot_.backoff.store(std::min(backoff + 1, cfg_.max_backoff),
                     std::memory_order_relaxed);
  if (cfg_.congestion_avoidance) {
    const std::uint32_t flight =
        hot_.in_flight.load(std::memory_order_relaxed);
    ssthresh_ = std::max(static_cast<double>(flight) / 2.0, 2.0);
    cwnd_ = 1.0;
    hot_.cwnd_pkts.store(1, std::memory_order_relaxed);
  }
}

void ReliableChannel::emit_ack_locked(std::uint64_t now,
                                      std::uint32_t echo_seq,
                                      std::uint64_t echo_tx_ns) {
  // Reverse-wire loss: acks take the same per-packet loss probability as
  // the forward wire, from a dedicated deterministic stream (cumulative
  // acks make individual losses harmless).
  const LinkConfig& wc = wire_->config();
  if (wc.loss > 0.0) {
    const std::uint64_t draw =
        rt::splitmix64(ack_loss_counter_++ ^ (wc.seed + 0x9e3779b97f4a7c15ULL));
    if (static_cast<double>(draw >> 11) * 0x1.0p-53 < wc.loss) {
      acks_dropped_->inc();
      return;
    }
  }
  const std::uint32_t rcv_nxt = hot_.rcv_nxt.load(std::memory_order_relaxed);
  std::uint64_t sack = 0;
  for (std::uint32_t i = 0; i < 64 && i + 1 < window_; ++i) {
    const std::uint32_t s = rcv_nxt + 1 + i;
    pkt::Packet* p = rx_slots_[slot_of(s)];
    if (p != nullptr && p->anno().tseq == s) sack |= 1ULL << i;
  }
  ack_wire_.push_back(
      AckRec{now + ack_delay_ns_, rcv_nxt, sack, echo_seq, echo_tx_ns});
  acks_sent_->inc();
}

void ReliableChannel::drain_wire_locked(std::uint64_t now) {
  pkt::Packet* rx[kChunk];
  bool any = false;
  // Timestamp echo for this batch's ack: the sender's own tx slot for a
  // fresh arrival still holds its original send time (same object, same
  // lock), so the echo needs no extra bytes on the wire packets.
  std::uint32_t echo_seq = 0;
  std::uint64_t echo_tx_ns = 0;
  while (true) {
    const std::size_t n = wire_->poll_burst(rx, kChunk);
    if (n == 0) break;
    any = true;
    std::uint32_t rcv_nxt = hot_.rcv_nxt.load(std::memory_order_relaxed);
    std::uint32_t buffered = hot_.rx_buffered.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      pkt::Packet* p = rx[i];
      const std::uint32_t seq = p->anno().tseq;
      if (seq_lt(seq, rcv_nxt) ||
          !seq_lt(seq, rcv_nxt + static_cast<std::uint32_t>(window_))) {
        // Already delivered (retransmit raced the ack) or outside the rx
        // window (stale beyond-window retransmit): duplicate either way.
        rx_duplicates_->inc();
        pool_.free_raw(p);
        continue;
      }
      pkt::Packet*& slot = rx_slots_[slot_of(seq)];
      if (slot != nullptr) {
        rx_duplicates_->inc();
        pool_.free_raw(p);
        continue;
      }
      slot = p;
      ++buffered;
      const TxSlot& ts = tx_slots_[slot_of(seq)];
      if (ts.copy != nullptr && ts.seq == seq && ts.retx == 0) {
        echo_seq = seq;
        echo_tx_ns = ts.sent_ns;
      }
      // Promote the contiguous run into the in-order delivery queue.
      while (true) {
        pkt::Packet*& head = rx_slots_[slot_of(rcv_nxt)];
        if (head == nullptr || head->anno().tseq != rcv_nxt) break;
        rx_ready_.push_back(head);
        head = nullptr;
        --buffered;
        ++rcv_nxt;
      }
    }
    hot_.rcv_nxt.store(rcv_nxt, std::memory_order_relaxed);
    hot_.rx_buffered.store(buffered, std::memory_order_relaxed);
    if (n < kChunk) break;
  }
  // One cumulative+selective ack per drained batch (also for pure
  // duplicates: the dup ack is what arms fast retransmit).
  if (any) emit_ack_locked(now, echo_seq, echo_tx_ns);
}

void ReliableChannel::pump_locked(std::uint64_t now) {
  while (!ack_wire_.empty() && ack_wire_.front().deliver_at_ns <= now) {
    const AckRec ack = ack_wire_.front();
    ack_wire_.pop_front();
    process_ack_locked(ack, now);
  }
  check_rto_locked(now);
}

std::size_t ReliableChannel::send_burst_locked(std::span<pkt::Packet*> ps,
                                               std::uint64_t now) {
  const std::uint32_t una = hot_.snd_una.load(std::memory_order_relaxed);
  std::uint32_t nxt = hot_.snd_nxt.load(std::memory_order_relaxed);
  const std::size_t eff = effective_window_locked();
  const std::size_t in_flight = nxt - una;
  if (in_flight >= eff) return 0;
  std::size_t accept = std::min(ps.size(), eff - in_flight);

  // Stage: stamp sequence numbers and stash retransmission copies. The
  // copy happens BEFORE the wire push — ownership of the original
  // transfers at the push, and the wire's loss model may free it there.
  std::size_t staged = 0;
  for (; staged < accept; ++staged) {
    pkt::Packet* copy = stash_pool_->alloc_raw();
    if (copy == nullptr) break;
    pkt::Packet* p = ps[staged];
    p->anno().tseq = nxt + static_cast<std::uint32_t>(staged);
    p->clone_into(*copy);
    TxSlot& slot = tx_slots_[slot_of(p->anno().tseq)];
    slot.copy = copy;
    slot.sent_ns = now;
    slot.seq = p->anno().tseq;
    slot.retx = 0;
    slot.sacked = false;
  }

  const std::size_t wired = wire_->send_burst(ps.first(staged));
  // Roll back the contiguous rejected tail (wire queue full): the caller
  // keeps ownership of those packets and no window slot refers to them.
  for (std::size_t i = wired; i < staged; ++i) {
    TxSlot& slot = tx_slots_[slot_of(nxt + static_cast<std::uint32_t>(i))];
    stash_pool_->free_raw(slot.copy);
    slot.copy = nullptr;
  }
  nxt += static_cast<std::uint32_t>(wired);
  hot_.snd_nxt.store(nxt, std::memory_order_relaxed);
  hot_.in_flight.store(nxt - una, std::memory_order_relaxed);
  occupancy_hist_.record(nxt - una);
  return wired;
}

std::size_t ReliableChannel::send_burst(std::span<pkt::Packet*> ps) {
  if (ps.empty()) return 0;
  // Budget attribution: only accepted packets count as link_send ops
  // (window-rejected attempts are backpressure, retried by the caller).
  const std::uint64_t prof_t0 =
      SFC_UNLIKELY(obs::hot_profiler() != nullptr) ? rt::rdtsc() : 0;
  const std::uint64_t now = rt::now_ns();
  std::size_t n = 0;
  {
    LockGuard lock(mutex_);
    pump_locked(now);
    n = send_burst_locked(ps, now);
  }
  if (n != 0) {
    sent_->add(n);
    if (SFC_UNLIKELY(prof_t0 != 0)) {
      if (auto* slot = obs::prof_slot()) {
        slot->add(obs::ProfStage::kLinkSend, rt::rdtsc() - prof_t0, n);
      }
    }
  } else {
    rejected_->inc();
  }
  return n;
}

bool ReliableChannel::send(pkt::Packet* p) {
  pkt::Packet* one[1] = {p};
  return send_burst({one, 1}) == 1;
}

bool ReliableChannel::send_blocking(pkt::Packet* p, std::uint64_t timeout_ns) {
  const std::uint64_t deadline = rt::now_ns() + timeout_ns;
  std::uint64_t retries = 0;
  for (unsigned backoff = 1; !send(p);
       backoff = std::min(backoff * 2, 1024u)) {
    ++retries;
    if (rt::now_ns() > deadline || rt::stop_requested()) {
      obs::prof_count(obs::ProfCounter::kSendRetry, retries);
      return false;
    }
    // send() pumps acks/RTO under the hood, so spinning here makes
    // progress: the window reopens as soon as acks arrive.
    if (backoff <= 64) {
      for (unsigned i = 0; i < backoff; ++i) rt::cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  if (retries != 0) obs::prof_count(obs::ProfCounter::kSendRetry, retries);
  return true;
}

std::size_t ReliableChannel::poll_burst(pkt::Packet** out, std::size_t max) {
  if (max == 0) return 0;
  // Attribute only productive polls, same policy as Link::poll_burst.
  const std::uint64_t prof_t0 =
      SFC_UNLIKELY(obs::hot_profiler() != nullptr) ? rt::rdtsc() : 0;
  const std::uint64_t now = rt::now_ns();
  std::size_t n = 0;
  {
    LockGuard lock(mutex_);
    pump_locked(now);
    drain_wire_locked(now);
    while (n < max && !rx_ready_.empty()) {
      out[n++] = rx_ready_.front();
      rx_ready_.pop_front();
    }
  }
  if (n != 0) {
    delivered_->add(n);
    if (SFC_UNLIKELY(prof_t0 != 0)) {
      if (auto* slot = obs::prof_slot()) {
        slot->add(obs::ProfStage::kLinkPoll, rt::rdtsc() - prof_t0, n);
      }
    }
  }
  return n;
}

pkt::Packet* ReliableChannel::poll() {
  pkt::Packet* out[1];
  return poll_burst(out, 1) == 1 ? out[0] : nullptr;
}

}  // namespace sfc::net
