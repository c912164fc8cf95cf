// FTC server node (paper §5): one ring position of a fault-tolerant chain.
//
// Each node hosts
//   * the head store of its own middlebox (if this ring position carries a
//     middlebox — chains shorter than f+1 are extended with pure replica
//     positions, paper §5.1),
//   * in-order appliers for the f preceding middleboxes (this node is a
//     member of their replication groups and the *tail* of exactly one),
//   * the data-plane workers that per packet: apply piggybacked logs, do
//     tail duty (strip; a wrap-around tail attaches its commit vector),
//     run the packet transaction, append the new log, and forward,
//   * a control endpoint (heartbeats, retransmissions, state fetch, and
//     the commit notices that prune the group's log histories).
//
// Ring position 0 additionally runs the Forwarder, the last position the
// EgressBuffer.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "base/mutex.hpp"
#include "core/buffer.hpp"
#include "core/config.hpp"
#include "core/forwarder.hpp"
#include "core/stores.hpp"
#include "mbox/middlebox.hpp"
#include "net/control.hpp"
#include "net/link.hpp"
#include "obs/registry.hpp"
#include "runtime/histogram.hpp"
#include "runtime/meter.hpp"
#include "runtime/worker.hpp"

namespace sfc::ftc {

/// Control-plane message types used by FTC nodes and the orchestrator.
enum CtrlMsg : std::uint32_t {
  kPing = 1,
  kPong,
  kNack,        ///< Retransmit request: payload = mbox id + MAX vector.
  kNackResp,    ///< Payload = mbox id + wire log records, back to back.
  kFetchReq,    ///< State fetch: payload = mbox id.
  kFetchResp,   ///< Payload = mbox id + ok flag + store/MAX/history blob
                ///< (the history as wire log records, back to back).
  kInit,        ///< Orchestrator -> new replica: begin recovery.
  kInitAck,
  kRecovered,   ///< New replica -> orchestrator: state recovery finished.
  kCommitNotice,  ///< Group tail -> ring predecessor, hop by hop to the
                  ///< head: payload = mbox id + the tail's MAX vector.
};

struct NodeStats {
  std::uint64_t packets_processed{0};
  std::uint64_t control_packets{0};
  std::uint64_t logs_applied{0};
  std::uint64_t logs_duplicate{0};
  std::uint64_t packets_parked{0};
  std::uint64_t nacks_sent{0};
  std::uint64_t nacks_served{0};
  std::uint64_t drops_filtered{0};
  std::uint64_t drops_unparseable{0};
  std::uint64_t oversize_detours{0};
};

/// The node's registry-backed counters. The hot path increments these
/// directly (relaxed atomics in the registry); stats() reads the same
/// cells, so there is no second bookkeeping copy.
struct NodeCounters {
  obs::Counter* packets_processed{nullptr};
  obs::Counter* control_packets{nullptr};
  obs::Counter* logs_applied{nullptr};
  obs::Counter* logs_duplicate{nullptr};
  obs::Counter* packets_parked{nullptr};
  obs::Counter* nacks_sent{nullptr};
  obs::Counter* nacks_served{nullptr};
  obs::Counter* drops_filtered{nullptr};
  obs::Counter* drops_unparseable{nullptr};
  obs::Counter* oversize_detours{nullptr};

  NodeStats snapshot() const {
    NodeStats s;
    s.packets_processed = packets_processed->value();
    s.control_packets = control_packets->value();
    s.logs_applied = logs_applied->value();
    s.logs_duplicate = logs_duplicate->value();
    s.packets_parked = packets_parked->value();
    s.nacks_sent = nacks_sent->value();
    s.nacks_served = nacks_served->value();
    s.drops_filtered = drops_filtered->value();
    s.drops_unparseable = drops_unparseable->value();
    s.oversize_detours = oversize_detours->value();
    return s;
  }
};

class FtcNode : rt::NonCopyable {
 public:
  using MboxFactory = std::function<std::unique_ptr<mbox::Middlebox>()>;

  struct Params {
    net::NodeId id{0};
    std::uint32_t position{0};    ///< Ring position.
    std::uint32_t ring_size{0};   ///< max(chain length, f+1).
    std::uint32_t num_mboxes{0};  ///< Real middleboxes (ring prefix).
    const ChainConfig* cfg{nullptr};
    pkt::PacketPool* pool{nullptr};
    net::ControlPlane* ctrl{nullptr};
    obs::Registry* registry{nullptr};  ///< Metrics/trace sink; a private
                                       ///< registry is used when null.
    EgressBuffer* buffer{nullptr};  ///< Last position only.
    MboxFactory mbox_factory;     ///< Empty for pure replica positions.
  };

  explicit FtcNode(Params params);
  ~FtcNode();

  // --- Wiring (done by the chain runtime / orchestrator). ---
  void attach_data_path(net::Port* in, net::Port* out);
  /// Makes this node the chain ingress. Also registers the head-ingress
  /// piggyback size histograms (the paper's Fig. 5 state-size axis).
  void set_forwarder(Forwarder* fwd);
  /// Updates the ring predecessor (NACK target). A change clears the
  /// per-store NACK throttle state: the gap gate must not carry over to a
  /// freshly rerouted predecessor, or it would suppress the first
  /// legitimate NACK to a replacement node.
  void set_ring_pred(net::NodeId pred);

  /// Starts data workers and the control endpoint.
  void start();
  /// Starts only the control endpoint (a new replica before recovery).
  void start_control();
  /// Graceful stop (drains nothing; used at experiment teardown).
  void stop();
  /// Crash-stop failure (paper's fail-stop model): threads halt, state is
  /// lost, the control endpoint goes silent.
  void fail();
  bool has_failed() const noexcept { return failed_.load(); }

  // --- Recovery (paper §5.2), run on a fresh node. ---
  /// Fetches each store from @p sources (mbox id -> node currently holding
  /// that state): the head store from the ring successor, applier stores
  /// from the ring predecessor. Fetches run in parallel, one thread per
  /// replication group, mirroring the paper's control module.
  bool recover_from(const std::vector<std::pair<MboxId, net::NodeId>>& sources,
                    std::uint64_t timeout_ns = 5'000'000'000);

  // --- Introspection. ---
  net::NodeId id() const noexcept { return id_; }
  std::uint32_t position() const noexcept { return position_; }
  bool has_mbox() const noexcept { return head_ != nullptr; }
  HeadStore* head() noexcept { return head_.get(); }
  InOrderApplier* applier(MboxId mbox) noexcept;
  NodeStats stats() const;
  std::size_t parked_count() const {
    LockGuard lock(park_mutex_);
    return parked_.size();
  }
  /// Per-store NACK throttle entries currently held (tests assert a ring
  /// predecessor change clears them; see set_ring_pred).
  std::size_t nack_throttle_entries() const {
    LockGuard lock(park_mutex_);
    return last_nack_ns_.size();
  }
  /// Worker passes under way. A pass raises this token before it polls or
  /// drains anything and drops it at its end, so it covers packets popped
  /// from the ingress link but not yet applied/forwarded, and parked
  /// packets or handoff portions a drain took out. Those are in no queue,
  /// so quiescence checks must consult this too. The same token is the
  /// quiesce handshake (quiesce_and waits for it to reach 0).
  std::uint32_t passes_in_flight() const noexcept {
    return passes_in_flight_.load(std::memory_order_acquire);
  }
  /// Passes finished that took something (packets, parked packets,
  /// handoff portions); empty polls do not count. Bumped before the pass
  /// token drops, so a quiescence check that reads it before and after
  /// sees any work that moved while it looked elsewhere.
  std::uint64_t bursts_done() const noexcept {
    return bursts_done_.load(std::memory_order_acquire);
  }
  /// True while any cross-shard handoff ring holds an un-drained portion.
  /// Quiescence checks must consult this: an enqueued
  /// portion's log counted as applied at classification but its writes
  /// reach the store only at the owner's drain.
  bool handoff_pending() const noexcept {
    return handoff_mesh_ != nullptr &&
           (!handoff_mesh_->empty() ||
            handoff_deferred_count_.load(std::memory_order_acquire) != 0);
  }
  const rt::Meter& meter() const noexcept { return meter_; }
  mbox::Middlebox* middlebox() noexcept { return mbox_.get(); }

  /// Ring position this node is the tail for (or ring_size if none).
  std::uint32_t tail_of() const noexcept;

 private:
  /// Sentinel for ViewWork::held_at: no log of this packet is held.
  static constexpr std::uint32_t kNoHeldLog = ~0U;

  /// Per-packet state of the piggyback pipeline: the opened tail view plus
  /// the message-order index of the first log still held (a predecessor
  /// log is missing; the packet parks and resumes from there).
  struct ViewWork {
    PiggybackView view;
    std::uint32_t held_at{kNoHeldLog};
  };

  /// A packet parked on a missing predecessor log. The packet is not
  /// touched while parked, so its view stays valid.
  struct Parked {
    pkt::Packet* packet{nullptr};
    ViewWork work;
    std::uint32_t thread_id{0};
    std::uint64_t parked_at_ns{0};
  };

  bool worker_body(std::uint32_t thread_id);
  /// What attach_feedback() put on a packet: the message's wire bytes and
  /// its log count (the head-ingress piggyback distributions).
  struct Attached {
    std::uint64_t bytes{0};
    std::uint64_t logs{0};
    friend bool operator==(const Attached&, const Attached&) = default;
  };
  /// Chain ingress: writes pending feedback records into @p p's tailroom
  /// as its message — always, an empty one when nothing is pending. Once
  /// a collect comes back empty it sets @p dry, and later calls with
  /// @p dry set skip the channel (the rest of the burst).
  Attached attach_feedback(pkt::Packet* p, bool& dry);
  /// Phase A over a whole rx burst of tail views: each packet's logs are
  /// offered, in rx order, to their applier, which copies applicable
  /// writes straight from the wire. Marks packets with still-held logs in
  /// @p vw.
  void apply_logs_burst(ViewWork* vw, std::size_t n);
  /// Re-offers @p w's logs from its held index. True once all applied.
  bool reoffer_held(ViewWork& w);
  /// Phases B-D on the packet tail in place; parks the packet instead when
  /// a log is held.
  void process_view(pkt::Packet* p, ViewWork& vw, std::uint32_t thread_id);
  void park(pkt::Packet* p, ViewWork&& vw, std::uint32_t thread_id);
  /// Detour (the paper's oversize-message case, and a filtering
  /// middlebox's drop): moves the records of @p v — commit vectors and
  /// logs, as bytes — onto a propagating packet and runs @p finish (the
  /// pending set_commit/append_wire_log) there. A propagating packet that
  /// fills up is emitted and the rest spills into a fresh one. @p p is
  /// left with an empty message, reopened in @p v.
  template <typename Fn>
  void detour(pkt::Packet& p, PiggybackView& v, Fn&& finish);
  /// Sends @p p on, or at the last position hands it to the egress
  /// buffer: either way staged into this thread's pass.
  void emit(pkt::Packet* p, PiggybackView& v);
  /// Stages @p p for the ring successor in this thread's pass.
  void forward(pkt::Packet* p);
  /// Sends the packets staged for the ring successor (retries bill to the
  /// profiler's kSendBlocked stage).
  void flush_tx();
  /// Ships everything this thread's pass staged: the successor's packets,
  /// the egress-buffer batch and the meter/counter totals.
  void ship_pass();
  /// Re-offers parked packets' held logs and sends on those now complete,
  /// until a round makes no progress. True when any packet went on.
  bool drain_parked();
  /// Applies every handoff entry queued for worker @p thread_id's shard.
  /// Returns entries consumed. Owner-only (or control under quiesce).
  std::size_t drain_handoff(std::uint32_t thread_id);
  void check_parked_timeouts();
  /// Tail duty on the control plane: once the tail applier's applied count
  /// has advanced, prunes its history with its MAX and sends the MAX to the
  /// ring predecessor as a kCommitNotice, which prunes every upstream member.
  void send_commit_notice();
  void handle_control();
  void dispatch_control(net::Message& msg);
  void reply_pong(const net::Message& ping);
  /// Prunes this node's copy of the notice's store (the last position's
  /// buffer learns it too); a member between head and tail forwards it.
  void handle_commit_notice(net::Message& notice);
  void handle_init(const net::Message& req);
  void handle_fetch(const net::Message& req);
  void handle_nack(const net::Message& req);
  void handle_nack_resp(const net::Message& resp);
  void quiesce_and(const std::function<void()>& fn);

  // Identity / topology.
  const net::NodeId id_;
  const std::uint32_t position_;
  const std::uint32_t ring_size_;
  const std::uint32_t num_mboxes_;
  const ChainConfig& cfg_;
  pkt::PacketPool& pool_;
  net::ControlPlane& ctrl_;
  std::atomic<net::NodeId> ring_pred_id_{0};

  // Data path.
  std::atomic<net::Port*> in_link_{nullptr};
  std::atomic<net::Port*> out_link_{nullptr};
  Forwarder* forwarder_{nullptr};
  EgressBuffer* const buffer_;  ///< Fixed before the control thread starts.

  // State.
  std::unique_ptr<mbox::Middlebox> mbox_;
  std::unique_ptr<HeadStore> head_;
  std::map<MboxId, std::unique_ptr<InOrderApplier>> appliers_;

  // The appliers' partition→worker ownership map and the SPSC handoff
  // mesh carrying cross-shard portions to their owner. Null on a node
  // that replicates no store.
  std::unique_ptr<state::ShardMap> shard_map_;
  std::unique_ptr<StateHandoffMesh> handoff_mesh_;
  /// Per-owner parking lot for drained handoff entries whose predecessor
  /// seq sits in another producer's ring (rings are FIFO per producer, not
  /// across producers). Each element is touched only by its owning worker
  /// (or by control under quiesce); the atomic count feeds quiescence.
  std::array<std::vector<StateHandoff>, state::ShardMap::kMaxWorkers>
      handoff_deferred_;
  std::atomic<std::size_t> handoff_deferred_count_{0};

  // Hot-path caches, resolved once in the constructor (appliers_ is
  // immutable after construction): applier() walks this flat array (at
  // most f entries, usually one) instead of the std::map, and tail duty
  // skips the per-packet tail_of() + lookup.
  std::vector<std::pair<MboxId, InOrderApplier*>> applier_cache_;
  std::uint32_t tail_mbox_{0};               ///< == ring_size_ if none.
  InOrderApplier* tail_applier_{nullptr};
  std::size_t burst_size_{1};                ///< cfg clamp to [1, kMaxBurst].

  // Tail duty: applied-count at the last commit-vector attach (wrap-around
  // tails only), and at the last commit notice (control thread only).
  std::atomic<std::uint64_t> last_commit_attach_{~0ULL};
  std::uint64_t last_commit_notice_{0};

  // Parked packets awaiting missing piggyback logs. Node rank: held only
  // for container manipulation, but the registry's snapshot callbacks take
  // it (parked_count), so it must rank below obs.registry.
  mutable Mutex park_mutex_{ranks::kNode, "node.park"};
  std::vector<Parked> parked_ SFC_GUARDED_BY(park_mutex_);
  std::map<MboxId, std::uint64_t> last_nack_ns_ SFC_GUARDED_BY(park_mutex_);
  /// Mirror of parked_.size(), updated under park_mutex_, read lock-free
  /// by data workers: the control thread must not run drain_parked (its
  /// transactions would dodge shard ownership), so idle workers poll this
  /// to pick up control-replayed unblocks.
  std::atomic<std::size_t> parked_size_{0};

  // Threads.
  std::vector<std::unique_ptr<rt::Worker>> workers_;
  std::unique_ptr<rt::Worker> control_worker_;
  std::atomic<bool> failed_{false};
  std::atomic<bool> quiesced_{false};
  std::atomic<std::uint32_t> passes_in_flight_{0};
  std::atomic<std::uint64_t> bursts_done_{0};

  // Stats / observability.
  rt::Meter meter_;
  std::unique_ptr<obs::Registry> own_registry_;
  obs::Registry* registry_{nullptr};
  NodeCounters stats_;
  // Head-ingress piggyback size distributions (registered lazily by
  // set_forwarder; only the chain ingress records them, lock-free).
  bool pb_hists_registered_{false};
  rt::AtomicHistogram pb_bytes_hist_;
  rt::AtomicHistogram pb_logs_hist_;
};

}  // namespace sfc::ftc
