// Egress buffer (paper §5).
//
// Holds packets leaving the chain until the state updates they carried for
// wrap-around middleboxes (those whose tail sits at the chain start) are
// known to be f+1-replicated, i.e. covered by commit vectors observed on
// later packets or in commit notices. Strips the piggyback message and
// forwards its log records to the forwarder via the feedback channel.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
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
  /// One partition a held packet's log touched: the packet waits until
  /// the commit vector of `mbox` reaches `seq` there.
  struct Pending {
    std::uint64_t seq;
    MboxId mbox;
    std::uint32_t partition;
  };

  /// One burst's packets at the egress buffer. submit_wire() fills it with
  /// packet-local work and no lock; end_burst() takes the buffer's lock
  /// once for all of it. Owned by the caller (a data worker keeps one per
  /// thread and ships it once per pass); its storage keeps its capacity
  /// across bursts.
  class Batch : rt::NonCopyable {
   public:
    bool empty() const noexcept { return entries_.empty() && n_control_ == 0; }

   private:
    friend class EgressBuffer;
    /// A data packet and its range of pending_.
    struct Entry {
      pkt::Packet* packet;
      std::uint32_t first;
      std::uint32_t count;
    };
    std::vector<Entry> entries_;
    std::vector<Pending> pending_;
    /// The burst's commit vectors, merged per middlebox.
    rt::SmallVector<CommitVector, 4> commits_;
    /// The burst's feedback records, shipped as one hand-off.
    FeedbackLogs feedback_;
    std::uint64_t n_control_{0};
  };

  /// @param egress  Link carrying released packets out of the chain.
  /// @param registry Metrics sink; a private registry is used when null.
  EgressBuffer(pkt::PacketPool& pool, net::Port& egress,
               FeedbackChannel& feedback, obs::Registry* registry = nullptr);

  /// Accepts a packet at the end of the chain with its final piggyback
  /// message, read in place through @p v, into @p batch: the commits merge
  /// into the batch's, the logs' touched (mbox, partition, seq) become the
  /// packet's pending set, the surviving log records are copied for the
  /// forwarder, and the tail is stripped, so packets leave the chain bare.
  /// Control (propagating) packets deliver their commits and are freed.
  /// Takes no lock: nothing is held or released before end_burst(@p
  /// batch). @p v may be invalid (packet without a message) and is
  /// consumed.
  void submit_wire(Batch& batch, pkt::Packet* p, PiggybackView& v);

  /// Ships @p batch under one lock: learns all of its commits, then holds
  /// or releases its packets in arrival order, sends the releases with one
  /// bulk send and the feedback records as one hand-off. @p batch is empty
  /// afterwards.
  void end_burst(Batch& batch) SFC_EXCLUDES(mutex_);

  /// Learns @p max as committed for @p mbox off the data path (a commit
  /// notice passing the last position) and releases the covered prefix.
  void learn(MboxId mbox, const MaxVector& max) SFC_EXCLUDES(mutex_);

  /// Re-checks every held packet against current commit knowledge and
  /// ships the covered ones (exposed for drain paths).
  void release_eligible();

  BufferStats stats() const;

  std::size_t held_count() const {
    LockGuard lock(mutex_);
    return live_;
  }

  /// Batches that submit_wire() filled and end_burst() has not shipped
  /// yet: their packets and records sit in no queue.
  std::size_t staged_count() const noexcept {
    return open_batches_.load(std::memory_order_acquire);
  }

 private:
  /// Bound on the MboxIds whose commits the buffer tracks.
  static constexpr MboxId kMaxMboxes = 4096;

  /// A held packet and the partitions it waits for: a Monitor or NAT log
  /// at f=1 touches one or two, inline. A null packet is a tombstone
  /// (released from the middle of the ring).
  struct Held {
    pkt::Packet* packet{nullptr};
    rt::SmallVector<Pending, 2> pending;
  };

  Held& slot(std::size_t i) SFC_REQUIRES(mutex_) {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }
  /// Appends a ring entry (growing the ring when full) and returns it.
  Held& push_held() SFC_REQUIRES(mutex_);
  bool is_covered(std::span<const Pending> pending) const SFC_REQUIRES(mutex_);
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

  // Release staging: packets released under one hold of the lock, shipped
  // in order with one send_burst.
  std::size_t n_stage_ SFC_GUARDED_BY(mutex_){0};
  pkt::Packet* release_stage_[kMaxBurst] SFC_GUARDED_BY(mutex_);

  std::atomic<std::size_t> open_batches_{0};

  std::unique_ptr<obs::Registry> own_registry_;
  obs::Counter* submitted_;
  obs::Counter* released_;
  obs::Counter* released_immediately_;
  obs::Counter* control_consumed_;
  obs::Gauge* held_gauge_;
  obs::Gauge* high_water_;
};

}  // namespace sfc::ftc
