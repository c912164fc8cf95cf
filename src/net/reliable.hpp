// Sliding-window reliable transport layered over a simulated Link.
//
// Structure follows sctrltp's sctp_core: a tx window of retransmission
// slots and an rx reassembly window, cumulative + selective acks, a
// Jacobson/Karels SRTT/RTTVAR estimator driving the adaptive RTO
// (exponential backoff on timeout, Karn's rule on retransmitted samples),
// and an optional AIMD congestion window (WITH_CONGAV). There is no timer
// thread: retransmission and ack processing are pumped from the existing
// data-path calls (send/poll at burst granularity), the same
// pump-on-touch model the rest of the runtime uses.
//
// The forward wire is a real Link (all loss/delay/reorder modeling, span
// tracing and per-wire counters apply to it unchanged, under the name
// "<name>.wire"). The reverse ack wire is modeled in-object: acks are
// plain records delayed by the same one-way latency and subjected to the
// same loss probability, drawn from their own deterministic stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/mutex.hpp"
#include "net/link.hpp"
#include "runtime/common.hpp"
#include "runtime/histogram.hpp"

namespace sfc::net {

struct ReliableConfig {
  /// Tx/rx window in packets (rounded up to a power of two, capped 1024).
  /// Also sizes the private retransmission stash pool.
  std::size_t window{128};
  /// RTO clamp. The floor absorbs scheduler jitter at LAN-scale delays;
  /// the ceiling bounds how long a lost head segment can stall the window.
  std::uint64_t rto_min_ns{200'000};
  std::uint64_t rto_max_ns{500'000'000};
  /// RTO before the first RTT sample lands (RFC 6298's 1s scaled to the
  /// simulation's microsecond links).
  std::uint64_t rto_initial_ns{3'000'000};
  /// Duplicate cumulative acks that trigger a fast retransmit.
  std::uint32_t dupack_threshold{3};
  /// Cap on exponential RTO backoff (effective RTO = rto << backoff).
  std::uint32_t max_backoff{6};
  /// AIMD congestion window (slow start / congestion avoidance, halve on
  /// fast retransmit, collapse to 1 on timeout). Off = flow control only.
  bool congestion_avoidance{false};
  /// First sequence number stamped (tests set this near 2^32 to cross the
  /// wraparound within a short run).
  std::uint32_t initial_seq{0};
};

/// RFC 1982-style serial arithmetic over uint32 sequence numbers.
constexpr bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}
constexpr bool seq_leq(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) <= 0;
}

class ReliableChannel : public Port {
 public:
  /// @param pool Pool that owns the data packets traversing the channel
  ///             (duplicates are returned to their owning pool through it).
  /// @param link_cfg Forward-wire configuration; the modeled reverse ack
  ///             wire reuses its delay and loss probability.
  /// @param registry Metrics destination (rel.* gauges/counters labelled
  ///             with @p name); a private registry is used when null.
  /// @param span_site Span site id handed to the forward wire.
  ReliableChannel(pkt::PacketPool& pool, LinkConfig link_cfg,
                  ReliableConfig cfg = {}, obs::Registry* registry = nullptr,
                  std::string name = "rel", std::uint32_t span_site = 0);
  ~ReliableChannel() override;

  bool send(pkt::Packet* p) override;
  bool send_blocking(pkt::Packet* p,
                     std::uint64_t timeout_ns = 1'000'000'000) override;
  std::size_t send_burst(std::span<pkt::Packet*> ps) override;
  pkt::Packet* poll() override;
  std::size_t poll_burst(pkt::Packet** out, std::size_t max) override;

  /// sent = packets accepted from the app, delivered = packets handed to
  /// the app in order. dropped_loss stays 0: wire loss is repaired by
  /// retransmission, so the end-to-end invariant tightens to
  /// sent == delivered once drained. The wire's own loss shows up on the
  /// "<name>.wire" link counters.
  LinkStats stats() const noexcept override;
  bool drained() const noexcept override;

  /// Current base RTO (without backoff). Nonzero once constructed, so
  /// FtcNode can key its parked-work timeout off it.
  std::uint64_t rto_ns() const noexcept override;

  std::uint64_t srtt_ns() const noexcept;
  std::uint64_t rttvar_ns() const noexcept;
  std::uint64_t retransmits() const noexcept;
  std::uint64_t timeouts() const noexcept;
  std::uint64_t fast_retransmits() const noexcept;
  std::uint64_t dup_acks() const noexcept;

  /// The underlying forward wire (tests inspect its loss counters and
  /// step its delay mid-run).
  Link& wire() noexcept { return *wire_; }
  const ReliableConfig& reliable_config() const noexcept { return cfg_; }

  /// Steps the one-way delay of both the forward wire and the modeled ack
  /// wire (RTO-adaptation tests).
  void set_delay_ns(std::uint64_t delay_ns) noexcept;

  /// Hot window state, cache-line padded in the sctrltp sctp_core layout:
  /// sender line / estimator line / receiver line, so the sender's seq
  /// advance never bounces the line the estimator or receiver spins on.
  /// All fields are relaxed mirrors maintained under the channel mutex;
  /// lock-free readers (gauges, rto_ns(), FtcNode) see consistent-enough
  /// point-in-time values.
  struct WindowHot {
    // --- Sender line. ---
    alignas(rt::kCacheLineSize) std::atomic<std::uint32_t> snd_nxt{0};
    std::atomic<std::uint32_t> snd_una{0};
    std::atomic<std::uint32_t> in_flight{0};
    std::atomic<std::uint32_t> cwnd_pkts{0};
    // --- Estimator line. ---
    alignas(rt::kCacheLineSize) std::atomic<std::uint64_t> srtt_ns{0};
    std::atomic<std::uint64_t> rttvar_ns{0};
    std::atomic<std::uint64_t> rto_ns{0};
    std::atomic<std::uint32_t> backoff{0};
    // --- Receiver line. ---
    alignas(rt::kCacheLineSize) std::atomic<std::uint32_t> rcv_nxt{0};
    std::atomic<std::uint32_t> rx_buffered{0};
  };
  static_assert(offsetof(WindowHot, snd_nxt) == 0);
  static_assert(offsetof(WindowHot, srtt_ns) == rt::kCacheLineSize);
  static_assert(offsetof(WindowHot, rcv_nxt) == 2 * rt::kCacheLineSize);
  static_assert(sizeof(WindowHot) == 3 * rt::kCacheLineSize);

 private:
  /// One tx window slot: the private stash copy kept for retransmission
  /// until cumulatively acked.
  struct TxSlot {
    pkt::Packet* copy{nullptr};  ///< null = slot free.
    std::uint64_t sent_ns{0};    ///< Last (re)transmission time.
    std::uint32_t seq{0};
    std::uint32_t retx{0};       ///< Karn's rule: >0 disables RTT sampling.
    bool sacked{false};
  };

  /// Modeled reverse-wire ack in flight.
  struct AckRec {
    std::uint64_t deliver_at_ns{0};
    std::uint32_t cum_nxt{0};  ///< Receiver's rcv_nxt (next expected seq).
    std::uint64_t sack{0};     ///< Bit i = seq cum_nxt+1+i buffered.
    /// Timestamp echo (RFC 7323 idea): original send time of the freshest
    /// never-retransmitted segment that arrived in the batch this ack
    /// covers, so the sender samples RTT per actual arrival — immune to
    /// the cumulative ack being held back by an earlier hole. 0 = none.
    std::uint32_t echo_seq{0};
    std::uint64_t echo_tx_ns{0};
  };

  std::size_t slot_of(std::uint32_t seq) const noexcept {
    return seq & (window_ - 1);
  }

  // All of the below run under mutex_.
  void pump_locked(std::uint64_t now) SFC_REQUIRES(mutex_);
  void process_ack_locked(const AckRec& ack, std::uint64_t now)
      SFC_REQUIRES(mutex_);
  void rtt_sample_locked(std::uint64_t sample_ns) SFC_REQUIRES(mutex_);
  void check_rto_locked(std::uint64_t now) SFC_REQUIRES(mutex_);
  void retransmit_head_locked(std::uint64_t now) SFC_REQUIRES(mutex_);
  void drain_wire_locked() SFC_REQUIRES(mutex_);
  void emit_ack_locked(std::uint64_t now, std::uint32_t echo_seq,
                       std::uint64_t echo_tx_ns) SFC_REQUIRES(mutex_);
  std::size_t effective_window_locked() const noexcept
      SFC_REQUIRES(mutex_);
  std::size_t send_burst_locked(std::span<pkt::Packet*> ps,
                                std::uint64_t now) SFC_REQUIRES(mutex_);

  pkt::PacketPool& pool_;           ///< Free-path handle for duplicates.
  const ReliableConfig cfg_;
  const std::size_t window_;        ///< Power of two.
  const std::string name_;

  std::unique_ptr<obs::Registry> own_registry_;
  obs::Registry* registry_{nullptr};

  /// Retransmission stash: private so a saturating app pool cannot starve
  /// recovery (same reasoning as the chain's internal pool).
  std::unique_ptr<pkt::PacketPool> stash_pool_;
  std::unique_ptr<Link> wire_;      ///< Forward wire ("<name>.wire").

  WindowHot hot_;

  /// Transport rank: the channel drives its underlying wire Link
  /// (rank kLink) while holding this mutex.
  mutable Mutex mutex_{ranks::kTransport, "net.reliable"};
  // Tx state.
  std::vector<TxSlot> tx_slots_ SFC_GUARDED_BY(mutex_);
  /// Packets (fractional growth in CA).
  double cwnd_ SFC_GUARDED_BY(mutex_){1.0};
  double ssthresh_ SFC_GUARDED_BY(mutex_);
  std::uint32_t dupack_run_ SFC_GUARDED_BY(mutex_){0};
  // Rx state.
  std::vector<pkt::Packet*> rx_slots_ SFC_GUARDED_BY(mutex_);
  std::deque<pkt::Packet*> rx_ready_ SFC_GUARDED_BY(mutex_);
  // Modeled reverse wire.
  std::deque<AckRec> ack_wire_ SFC_GUARDED_BY(mutex_);
  std::uint64_t ack_delay_ns_ SFC_GUARDED_BY(mutex_);
  std::uint64_t ack_loss_counter_ SFC_GUARDED_BY(mutex_){0};
  rt::Histogram occupancy_hist_ SFC_GUARDED_BY(mutex_);
  rt::Histogram rtt_hist_ SFC_GUARDED_BY(mutex_);

  // Registry-backed counters (hot path increments these directly).
  obs::Counter* sent_;
  obs::Counter* delivered_;
  obs::Counter* rejected_;
  obs::Counter* retransmits_;
  obs::Counter* timeouts_;
  obs::Counter* fast_retransmits_;
  obs::Counter* dup_acks_;
  obs::Counter* acks_sent_;
  obs::Counter* acks_dropped_;
  obs::Counter* rtt_samples_;
  obs::Counter* rx_duplicates_;
};

}  // namespace sfc::net
