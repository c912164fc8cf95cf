// Chain runtime: builds and runs a service function chain in one of the
// four evaluation modes (NF / FTC / FTMB / FTMB+Snapshot), owning the
// simulated servers, the links between them, the packet pool, and the
// control plane. The traffic generator injects into ingress() and the
// measurement sink drains egress().
//
// Topologies (paper §7.1):
//   NF:    gen -> M1 -> M2 -> ... -> Mn -> sink            (n servers)
//   FTC:   gen -> R0(fwd) -> R1 -> ... -> R(last, buffer) -> sink
//          with the buffer->forwarder feedback channel     (n servers,
//          extended with pure replicas when n < f+1)
//   FTMB:  gen -> [IL/OL]1 <-> M1 -> [IL/OL]2 <-> M2 ... -> sink
//          (2n servers: one logger server per middlebox)
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer.hpp"
#include "core/config.hpp"
#include "core/forwarder.hpp"
#include "core/nf_node.hpp"
#include "core/node.hpp"
#include "ftmb/ftmb.hpp"
#include "net/control.hpp"
#include "obs/prof.hpp"
#include "obs/registry.hpp"

namespace sfc::ftc {

/// Span-site link id of the chain's egress link (segments use their ring
/// position). High enough to clear any realistic chain length.
constexpr std::uint32_t kEgressLinkSite = 1000;

/// What ChainRuntime::quiescent() found: the first place still holding
/// replication work, or nothing. Converts to true when quiescent.
struct QuiescenceReport {
  enum class Blocker : std::uint8_t {
    kNone,
    kLink,       ///< Segment `position` (it feeds that ring position) holds packets.
    kFtmbLink,   ///< FTMB logger<->master link `position` holds packets.
    kFeedback,   ///< Feedback records wait for the forwarder.
    kBuffer,     ///< The egress buffer holds packets for commits, or has
                 ///< releases or feedback staged for its burst end.
    kParked,     ///< The node at `position` has parked packets.
    kHandoff,    ///< The node at `position` has undrained handoff portions.
    kTxHeld,     ///< The node at `position` holds packets its successor's
                 ///< full port has not taken.
    kInFlight,   ///< A worker pass at `position` kept work in its hands.
    kProgress,   ///< Passes finished while the check ran (`count` of them).
  };
  Blocker blocker{Blocker::kNone};
  std::uint32_t position{0};
  std::uint64_t count{0};

  explicit operator bool() const noexcept { return blocker == Blocker::kNone; }
  /// One line naming the blocker, e.g. "node pos 1: 3 parked".
  std::string to_string() const;
};

class ChainRuntime : rt::NonCopyable {
 public:
  struct Spec {
    ChainMode mode{ChainMode::kFtc};
    ChainConfig cfg{};
    /// One factory per middlebox, in chain order.
    std::vector<FtcNode::MboxFactory> mbox_factories;
  };

  explicit ChainRuntime(Spec spec);
  ~ChainRuntime();

  void start();
  void stop();

  net::Port& ingress() noexcept { return *links_.front(); }
  net::Port& egress() noexcept { return *egress_link_; }
  /// Inter-server segment ports (links_[i] feeds ring position i). With
  /// transport == kReliable these are ReliableChannels; benches read their
  /// adaptive RTO through Port::rto_ns().
  std::size_t num_segments() const noexcept { return links_.size(); }
  net::Port& segment(std::size_t i) noexcept { return *links_[i]; }
  /// Pool for generator traffic. Protocol-internal packets (propagating
  /// packets, FTMB PALs) come from a separate reserve so a saturating
  /// generator cannot starve the replication machinery into deadlock.
  pkt::PacketPool& pool() noexcept { return *pool_; }
  pkt::PacketPool& internal_pool() noexcept { return *internal_pool_; }
  net::ControlPlane& control() noexcept { return ctrl_; }
  /// Chain-wide metrics/trace registry: every node, link, the control
  /// plane, the buffer, and the orchestrator register into this one.
  obs::Registry& registry() noexcept { return registry_; }
  const obs::Registry& registry() const noexcept { return registry_; }
  /// The chain's hot-path budget profiler, or nullptr when neither
  /// cfg.profile nor cfg.quiet_assert is set. Callers arm quiet mode after
  /// warmup via profiler()->arm_quiet() and read budgets via report().
  obs::HotProfiler* profiler() noexcept { return profiler_.get(); }
  const Spec& spec() const noexcept { return spec_; }

  std::uint32_t num_mboxes() const noexcept {
    return static_cast<std::uint32_t>(spec_.mbox_factories.size());
  }
  std::uint32_t ring_size() const noexcept { return ring_size_; }

  /// Node currently serving a ring position (FTC mode). The slot is
  /// atomic: the orchestrator's monitor thread swaps it on recovery
  /// (wire_replacement) while tests and stats readers poll it.
  FtcNode* ftc_node(std::uint32_t position) noexcept {
    return position < ftc_at_.size()
               ? ftc_at_[position].load(std::memory_order_acquire)
               : nullptr;
  }
  NfNode* nf_node(std::uint32_t position) noexcept {
    return position < nf_nodes_.size() ? nf_nodes_[position].get() : nullptr;
  }
  ftmb::FtmbMaster* ftmb_master(std::uint32_t position) noexcept {
    return position < ftmb_masters_.size() ? ftmb_masters_[position].get()
                                           : nullptr;
  }
  ftmb::FtmbLogger* ftmb_logger(std::uint32_t position) noexcept {
    return position < ftmb_loggers_.size() ? ftmb_loggers_[position].get()
                                           : nullptr;
  }
  EgressBuffer* buffer() noexcept { return buffer_.get(); }
  Forwarder* forwarder() noexcept { return forwarder_.get(); }

  /// Sum of per-middlebox packet counters at the last hop (throughput of
  /// the chain as the paper measures it: packets leaving the chain).
  std::uint64_t egress_packets() const noexcept;

  /// Quiescent (converts to true) when no replication work is pending
  /// anywhere: all data links drained, no buffered holds, no feedback
  /// awaiting dissemination, no parked packets or handoff portions, no
  /// burst in a worker's hands. Otherwise names the first blocker. The
  /// check double-collects every node's bursts_done() around the scan, so
  /// work that moved from an unchecked place into a checked one while the
  /// scan ran is not missed. Used by tests to know state has converged.
  QuiescenceReport quiescent();

  // --- Failure injection & recovery plumbing (FTC mode). ---
  /// Crash-stops the node at @p position (fail-stop, paper §2).
  void fail_position(std::uint32_t position);

  /// Creates a fresh replica for @p position and starts its workers (data
  /// path detached: worker 0 serves only the control endpoint) — the
  /// orchestrator's "spawn" step.
  FtcNode* spawn_replacement(std::uint32_t position);

  /// The per-replication-group fetch sources for a new replica at
  /// @p position (paper §5.2): its own store from the ring successor, each
  /// applier store from the ring predecessor.
  std::vector<std::pair<MboxId, net::NodeId>> recovery_sources(
      std::uint32_t position) const;

  /// True once everything the node at @p position has sent reached its
  /// ring successor's state: the segment into the successor is drained and
  /// the successor holds no unapplied burst or handoff portion. From the
  /// last position the path runs through the egress buffer's feedback
  /// channel into the head's forwarder. A failed successor counts as
  /// caught up: nothing more reaches it. The orchestrator waits for this
  /// before a replacement fetches the failed head's store from the
  /// successor, so the failed head's in-flight logs are in the fetched
  /// state rather than arriving after it with the sequence numbers the
  /// recovered head will reuse.
  bool successor_caught_up(std::uint32_t position);

  /// Attaches the recovered replica to the chain links, which its running
  /// workers then poll — the orchestrator's "steer traffic" step.
  void wire_replacement(std::uint32_t position, FtcNode* node);

  /// Places a ring position in a named cloud region: the current node and
  /// any future replacement at this position inherit it (paper §7.5: the
  /// new replica is placed in the failed middlebox's region).
  void set_position_region(std::uint32_t position, std::uint32_t region);

 private:
  void build_ftc();
  void build_nf();
  void build_ftmb(bool snapshots);
  FtcNode::MboxFactory factory_for(std::uint32_t position) const;

  Spec spec_;
  std::uint32_t ring_size_{0};
  // Declared before the registry: export_metrics installs gauge_fn
  // callbacks that dereference the profiler at snapshot time, so the
  // registry (destroyed first, reverse declaration order) must die before
  // the profiler does.
  std::unique_ptr<obs::HotProfiler> profiler_;
  std::unique_ptr<pkt::PacketPool> pool_;
  std::unique_ptr<pkt::PacketPool> internal_pool_;
  // Declared before every component that registers into it (and therefore
  // destroyed after all of them).
  obs::Registry registry_;
  net::ControlPlane ctrl_{&registry_};
  net::NodeId next_node_id_{1};

  /// Builds segment i's port per spec_.cfg.transport (raw Link or
  /// ReliableChannel over the same LinkConfig).
  std::unique_ptr<net::Port> make_segment(std::uint32_t i);

  // links_[i] feeds ring position i; links_[i+1] carries its output.
  std::vector<std::unique_ptr<net::Port>> links_;
  std::unique_ptr<net::Link> egress_link_;

  // FTC mode.
  std::vector<std::unique_ptr<FtcNode>> ftc_nodes_;  // All ever created.
  std::vector<std::atomic<FtcNode*>> ftc_at_;        // Current per position.
  std::unique_ptr<FeedbackChannel> feedback_;
  std::unique_ptr<Forwarder> forwarder_;
  std::unique_ptr<EgressBuffer> buffer_;

  // NF mode.
  std::vector<std::unique_ptr<NfNode>> nf_nodes_;

  std::map<std::uint32_t, std::uint32_t> position_region_;

  // FTMB mode (per middlebox: logger + master + two internal links).
  std::vector<std::unique_ptr<ftmb::FtmbLogger>> ftmb_loggers_;
  std::vector<std::unique_ptr<ftmb::FtmbMaster>> ftmb_masters_;
  std::vector<std::unique_ptr<net::Link>> ftmb_links_;

  bool started_{false};
};

}  // namespace sfc::ftc
