// Egress buffer (paper §5).
//
// Holds packets leaving the chain until the state updates they carried for
// wrap-around middleboxes (those whose tail sits at the chain start) are
// known to be f+1-replicated, i.e. covered by commit vectors observed on
// later packets. Strips the piggyback message and forwards its log records
// to the forwarder via the feedback channel.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/mutex.hpp"
#include "core/config.hpp"
#include "core/forwarder.hpp"
#include "core/piggyback.hpp"
#include "net/link.hpp"
#include "obs/registry.hpp"

namespace sfc::ftc {

struct BufferStats {
  std::uint64_t submitted{0};
  std::uint64_t released{0};
  std::uint64_t released_immediately{0};
  std::uint64_t control_consumed{0};
  std::uint64_t high_water{0};
};

class EgressBuffer : rt::NonCopyable {
 public:
  /// @param egress  Link carrying released packets out of the chain.
  /// @param registry Metrics sink; a private registry is used when null.
  EgressBuffer(pkt::PacketPool& pool, net::Port& egress,
               FeedbackChannel& feedback, obs::Registry* registry = nullptr);

  /// Accepts a packet at the end of the chain with its final piggyback
  /// message, read in place through @p v: commits and pending-log headers
  /// come straight off the packet tail, and the surviving log records go
  /// back to the forwarder as wire bytes. The tail is stripped before the
  /// packet is held or released, so packets leave the chain bare. Control
  /// (propagating) packets deliver their commits and are freed. @p v may
  /// be invalid (packet without a message) and is consumed.
  ///
  /// Inside a burst (@p in_burst) the releases and feedback records this
  /// submit produces are staged, and the caller's end_burst() ships them
  /// all at once; outside one they ship before submit_wire returns.
  void submit_wire(pkt::Packet* p, PiggybackView& v, bool in_burst = false)
      SFC_EXCLUDES(mutex_);

  /// Ships what the burst staged: released packets with one bulk send,
  /// feedback records as one hand-off.
  void end_burst() SFC_EXCLUDES(mutex_);

  /// Absorbs commit vectors into the buffer's release knowledge, as
  /// submit_wire does with the commits a packet carries.
  void absorb(std::span<const CommitVector> commits) SFC_EXCLUDES(mutex_);

  /// Re-checks every held packet against current commit knowledge and
  /// ships the covered ones (exposed for drain paths).
  void release_eligible();

  BufferStats stats() const;

  std::size_t held_count() const {
    LockGuard lock(mutex_);
    return live_;
  }

  /// Released packets and feedback records waiting for end_burst().
  std::size_t staged_count() const {
    LockGuard lock(mutex_);
    return n_stage_ + feedback_stage_.count();
  }

 private:
  /// Bound on the MboxIds whose commits the buffer tracks.
  static constexpr MboxId kMaxMboxes = 4096;

  struct PendingLog {
    MboxId mbox;
    DepVector dep;
  };

  /// A held packet and the logs it waits for: one per wrap-around
  /// middlebox, so f of them (a Monitor or NAT chain at f=1 carries one),
  /// inline up to f=2. A null packet is a tombstone (released from the
  /// middle of the ring).
  struct Held {
    pkt::Packet* packet{nullptr};
    rt::SmallVector<PendingLog, 2> pending;
  };

  Held& slot(std::size_t i) SFC_REQUIRES(mutex_) {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }
  /// Appends a ring entry (growing the ring when full) and returns it.
  Held& push_held() SFC_REQUIRES(mutex_);
  bool is_covered(const Held& held) const SFC_REQUIRES(mutex_);
  /// Merges @p max into what the buffer knows is committed for @p mbox.
  void learn_commit(MboxId mbox, const MaxVector& max) SFC_REQUIRES(mutex_);
  /// Stages @p p for release; flush_releases_locked() ships the staged
  /// batch with one bulk send.
  void stage_release_locked(pkt::Packet* p) SFC_REQUIRES(mutex_);
  /// Stages @p held's packet for release and leaves a tombstone.
  void release_locked(Held& held) SFC_REQUIRES(mutex_);
  /// Releases the covered (or tombstoned) prefix of the ring.
  void release_prefix_locked() SFC_REQUIRES(mutex_);
  /// Releases every covered entry, wherever it sits.
  void release_all_covered_locked() SFC_REQUIRES(mutex_);
  void flush_releases_locked() SFC_REQUIRES(mutex_);
  /// Ships the staged releases; returns the staged feedback hand-off for
  /// the caller to push once the mutex is released.
  FeedbackLogs ship_locked() SFC_REQUIRES(mutex_);
  void push_feedback(FeedbackLogs&& logs) SFC_EXCLUDES(mutex_);

  pkt::PacketPool& pool_;
  net::Port& egress_;
  FeedbackChannel& feedback_;
  obs::Registry* registry_{nullptr};  ///< Span sink lookup (never null).

  /// Node-level rank: flush_releases_locked() drives the egress Link /
  /// ReliableChannel (lower ranks) while this is held.
  mutable Mutex mutex_{ranks::kNode, "ftc.egress_buffer"};
  /// Held packets in arrival order: a ring of power-of-two size that
  /// grows on demand and keeps its capacity. size_ counts tombstones too.
  std::vector<Held> ring_ SFC_GUARDED_BY(mutex_);
  std::size_t head_ SFC_GUARDED_BY(mutex_){0};
  std::size_t size_ SFC_GUARDED_BY(mutex_){0};
  std::size_t live_ SFC_GUARDED_BY(mutex_){0};
  /// The merged commit vector per middlebox, indexed by MboxId (a ring
  /// position, so a few entries); grown on first sight of a middlebox. A
  /// middlebox not seen yet reads as all zeros, which covers no log.
  std::vector<MaxVector> known_commits_ SFC_GUARDED_BY(mutex_);
  std::uint64_t full_scans_ SFC_GUARDED_BY(mutex_){0};

  // Release staging: packets released by the current burst (or submit),
  // shipped in order with one send_burst.
  std::size_t n_stage_ SFC_GUARDED_BY(mutex_){0};
  pkt::Packet* release_stage_[kMaxBurst] SFC_GUARDED_BY(mutex_);
  /// Feedback records of the current burst, shipped as one hand-off.
  FeedbackLogs feedback_stage_ SFC_GUARDED_BY(mutex_);

  std::unique_ptr<obs::Registry> own_registry_;
  obs::Counter* submitted_;
  obs::Counter* released_;
  obs::Counter* released_immediately_;
  obs::Counter* control_consumed_;
  obs::Gauge* held_gauge_;
  obs::Gauge* high_water_;
};

}  // namespace sfc::ftc
