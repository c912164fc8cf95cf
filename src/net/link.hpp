// Simulated unidirectional link between two servers.
//
// Substitutes for the paper's 10/40 GbE switch fabric. The default
// configuration (no delay, no loss) is a lock-free queue — the fast path
// used by throughput benchmarks. Configuring propagation delay, loss,
// reordering, or bandwidth switches to a mutex-protected timed queue —
// the path used by protocol tests (loss -> retransmission, reorder ->
// dependency-vector holds) and by the WAN recovery experiments.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>

#include "base/mutex.hpp"
#include "obs/registry.hpp"
#include "packet/packet_pool.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/rng.hpp"

namespace sfc::net {

struct LinkConfig {
  std::uint64_t delay_ns{0};         ///< One-way propagation delay.
  double loss{0.0};                  ///< Per-packet drop probability.
  double reorder{0.0};               ///< Probability of delaying one packet
                                     ///< past its successors.
  std::uint64_t reorder_extra_ns{20'000};
  std::size_t capacity{8192};        ///< Queue depth before tail drop.
  std::uint64_t seed{1};
};

struct LinkStats {
  std::uint64_t sent{0};       ///< Packets accepted by the port (including
                               ///< ones the loss model consumed on the wire).
  std::uint64_t delivered{0};
  std::uint64_t dropped_loss{0};
  std::uint64_t dropped_full{0};
};

/// Abstract unidirectional packet port: the interface every data-plane
/// producer/consumer (nodes, traffic generator, egress buffer) codes
/// against. Two implementations exist: the raw simulated Link below and
/// net::ReliableChannel, which layers a sliding-window reliable transport
/// over a Link. Accounting invariant every implementation upholds once the
/// port is drained: sent == delivered + dropped_loss.
class Port : rt::NonCopyable {
 public:
  virtual ~Port() = default;

  /// Sends a packet. Returns false when the port cannot accept it (queue
  /// or window full; the packet is NOT consumed, the caller owns it and
  /// may retry or drop). A packet consumed by a loss model still returns
  /// true: senders cannot observe wire loss.
  virtual bool send(pkt::Packet* p) = 0;

  /// Sends with bounded retry/backoff; false (caller keeps ownership)
  /// only if the port stayed full for @p timeout_ns, or the calling
  /// Worker was asked to stop while it waited (rt::stop_requested).
  virtual bool send_blocking(pkt::Packet* p,
                             std::uint64_t timeout_ns = 1'000'000'000) = 0;

  /// Sends a prefix of @p ps; returns the accepted prefix length (the
  /// caller keeps ownership of the rest).
  virtual std::size_t send_burst(std::span<pkt::Packet*> ps) = 0;

  /// Receives the next deliverable packet, or nullptr.
  virtual pkt::Packet* poll() = 0;

  /// Receives up to @p max deliverable packets into @p out.
  virtual std::size_t poll_burst(pkt::Packet** out, std::size_t max) = 0;

  virtual LinkStats stats() const noexcept = 0;

  /// True when nothing is queued or in flight inside the port.
  virtual bool drained() const noexcept = 0;

  /// Current adaptive retransmission timeout estimate, or 0 for ports
  /// without an estimator (raw links). FtcNode scales its parked-work
  /// retransmit timeout from this instead of the fixed config value.
  virtual std::uint64_t rto_ns() const noexcept { return 0; }
};

class Link : public Port {
 public:
  /// @param pool Pool that owns packets traversing this link (lost packets
  ///             are returned to it).
  /// @param registry Destination for this link's counters (labelled with
  ///                 @p name); a private registry is used when null.
  /// @param span_site Span site id for sampled-packet tracing
  ///                  (obs::span_site_link); 0 disables span events.
  Link(pkt::PacketPool& pool, LinkConfig cfg = {},
       obs::Registry* registry = nullptr, std::string name = "link",
       std::uint32_t span_site = 0);

  /// Sends a packet. Returns false when the queue is full (the packet is
  /// NOT consumed; the caller owns it and may retry or drop). A packet
  /// consumed by the loss model still returns true (and counts as sent):
  /// senders cannot observe wire loss.
  bool send(pkt::Packet* p) override;

  /// Sends with bounded retry and exponential backoff (cpu_relax rounds
  /// first, then yields). Returns false (caller keeps ownership) only if
  /// the link stayed full throughout. Retry rounds are counted in the
  /// `link.send_retries` registry counter.
  bool send_blocking(pkt::Packet* p,
                     std::uint64_t timeout_ns = 1'000'000'000) override;

  /// Receives the next deliverable packet, or nullptr.
  pkt::Packet* poll() override;

  /// Sends a prefix of @p ps, amortizing the queue reservation and the
  /// counter updates over the burst (fast path: one CAS + one add(n)).
  /// Returns the accepted prefix length; the caller keeps ownership of the
  /// rest. On the timed path each packet keeps today's per-packet
  /// semantics (loss/reorder draws happen per packet, in order).
  std::size_t send_burst(std::span<pkt::Packet*> ps) override;

  /// Receives up to @p max deliverable packets into @p out, in delivery
  /// order, coalescing counter updates to one add(n). The timed
  /// loss/reorder path drains every currently deliverable packet (up to
  /// @p max) under a single lock acquisition.
  std::size_t poll_burst(pkt::Packet** out, std::size_t max) override;

  LinkStats stats() const noexcept override;
  const LinkConfig& config() const noexcept { return cfg_; }

  /// Changes the one-way propagation delay at runtime (tests step-change
  /// link conditions mid-run to exercise RTO adaptation). Only effective
  /// on the timed path: a link built with zero delay/loss/reorder stays on
  /// the fast path regardless.
  void set_delay_ns(std::uint64_t delay_ns) noexcept {
    delay_ns_.store(delay_ns, std::memory_order_relaxed);
  }
  std::uint64_t delay_ns() const noexcept {
    return delay_ns_.load(std::memory_order_relaxed);
  }

  /// True when every queued packet has been delivered.
  bool drained() const noexcept override;

 private:
  bool lossy_drop() noexcept;

  struct Timed {
    pkt::Packet* packet;
    std::uint64_t deliver_at_ns;
  };

  pkt::PacketPool& pool_;
  const LinkConfig cfg_;
  const bool fast_path_;
  obs::Registry* registry_{nullptr};  ///< Span sink lookup (never null).
  const std::uint32_t span_site_;

  rt::MpmcQueue<pkt::Packet*> fast_queue_;

  mutable Mutex mutex_{ranks::kLink, "net.link"};
  std::deque<Timed> timed_queue_ SFC_GUARDED_BY(mutex_);

  // Loss and reorder decisions hash SEPARATE counters so the two streams
  // are statistically independent: with a shared counter, every loss draw
  // advanced the reorder stream (and vice versa), correlating the j-th
  // surviving packet's reorder fate with the loss rate.
  std::atomic<std::uint64_t> loss_counter_{0};
  std::atomic<std::uint64_t> reorder_counter_{0};
  std::atomic<std::uint64_t> delay_ns_;

  // Counters live in the registry (single bookkeeping; the snapshot and
  // stats() read the same cells the hot path increments).
  std::unique_ptr<obs::Registry> own_registry_;
  obs::Counter* sent_;
  obs::Counter* delivered_;
  obs::Counter* dropped_loss_;
  obs::Counter* dropped_full_;
  obs::Counter* send_retries_;
};

}  // namespace sfc::net
