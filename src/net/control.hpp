// Control-plane messaging.
//
// Stands in for the paper's management network: orchestrator <-> replica
// daemons (heartbeats, deployment, routing updates) and replica <-> replica
// state-fetch during recovery (their "reliable TCP connection"). Delivery
// is reliable and ordered per sender; per-pair one-way delays model the
// multi-region SAVI cloud of the paper's Figure 13.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/mutex.hpp"
#include "obs/registry.hpp"
#include "runtime/common.hpp"

namespace sfc::net {

using NodeId = std::uint32_t;

inline constexpr NodeId kOrchestratorNode = 0xffffffff;

struct Message {
  std::uint32_t type{0};
  NodeId from{0};
  NodeId to{0};
  std::uint64_t tag{0};  ///< Request/response correlation id.
  std::vector<std::uint8_t> payload;
};

class ControlPlane : rt::NonCopyable {
  struct Timed {
    Message msg;
    std::uint64_t deliver_at_ns;
  };

 public:
  /// One node's inbox. Its address is stable for the plane's lifetime, so
  /// a consumer that polls millions of times per second can hold it and
  /// ask due() without taking the plane's lock, which every node and the
  /// orchestrator share.
  class Inbox {
   public:
    /// True when a message is deliverable at @p now_ns. Reads the
    /// earliest delivery time, which every send and poll republishes.
    bool due(std::uint64_t now_ns) const noexcept {
      return next_due_ns_.load(std::memory_order_acquire) <= now_ns;
    }

   private:
    friend class ControlPlane;
    static constexpr std::uint64_t kNone = ~0ULL;
    std::deque<Timed> queue;  ///< Sorted by delivery time; under mutex_.
    std::atomic<std::uint64_t> next_due_ns_{kNone};
  };

  /// Metrics go to @p registry when given, else to a private one.
  explicit ControlPlane(obs::Registry* registry = nullptr);

  /// Ensures @p node has an inbox (idempotent) and returns it.
  Inbox& register_node(NodeId node);

  /// Sets the one-way delay between two nodes (symmetric). Models WAN
  /// latency between cloud regions; defaults to zero.
  void set_delay(NodeId a, NodeId b, std::uint64_t one_way_ns);

  /// Places every node in a named region and applies @p one_way_ns between
  /// any two nodes of different regions (convenience for Figure 13 style
  /// topologies).
  void set_region(NodeId node, std::uint32_t region);
  void set_inter_region_delay(std::uint64_t one_way_ns);

  /// One-way delay between two specific regions (overrides the default
  /// inter-region delay for that pair).
  void set_region_delay(std::uint32_t region_a, std::uint32_t region_b,
                        std::uint64_t one_way_ns);

  /// Sends @p msg (reliable; delivered after the configured delay).
  void send(Message msg);

  /// Receives the next deliverable message for @p node, or nullopt.
  std::optional<Message> poll(NodeId node);

  /// Blocks (yielding) until a message of @p type (and @p tag, unless tag
  /// is 0) arrives for @p node or the timeout expires. Non-matching
  /// messages are left in the inbox untouched — their delivery times and
  /// ordering are preserved for concurrent consumers.
  std::optional<Message> wait_for(NodeId node, std::uint32_t type,
                                  std::uint64_t timeout_ns,
                                  std::uint64_t tag = 0);

  std::uint64_t delay_between(NodeId a, NodeId b) const;

  /// Control-plane bandwidth model: state-fetch payloads take size/bw extra
  /// time to deliver. 0 = infinite bandwidth (default).
  void set_bandwidth_gbps(double gbps);

 private:
  static std::uint64_t pair_key(NodeId a, NodeId b) noexcept {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  /// delay_between() body; caller holds mutex_.
  std::uint64_t delay_between_locked(NodeId a, NodeId b) const
      SFC_REQUIRES(mutex_);
  /// Republishes @p inbox's earliest delivery time after a change to its
  /// queue; caller holds mutex_.
  static void publish_due(Inbox& inbox) noexcept;

  mutable Mutex mutex_{ranks::kControl, "net.control"};
  std::unordered_map<NodeId, Inbox> inboxes_ SFC_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::uint64_t> pair_delay_ns_
      SFC_GUARDED_BY(mutex_);
  std::unordered_map<NodeId, std::uint32_t> regions_ SFC_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::uint64_t> region_pair_delay_ns_
      SFC_GUARDED_BY(mutex_);
  std::uint64_t inter_region_delay_ns_ SFC_GUARDED_BY(mutex_){0};
  double ns_per_byte_ SFC_GUARDED_BY(mutex_){0.0};

  std::unique_ptr<obs::Registry> own_registry_;
  obs::Counter* msgs_sent_;
  obs::Counter* msgs_delivered_;
  obs::Counter* msgs_dropped_;  ///< Unknown destination.
  obs::Counter* wait_timeouts_;
};

}  // namespace sfc::net
