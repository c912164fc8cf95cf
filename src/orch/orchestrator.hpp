// Orchestrator (paper §3.2 "centralized orchestration", §5.2 failure
// recovery). Stands in for the paper's ONOS-based NFV orchestrator:
//   * deploys chains (done by ChainRuntime at construction),
//   * reliably monitors replicas via heartbeats and detects fail-stop
//     failures,
//   * drives recovery: spawn a new replica AT THE FAILURE POSITION,
//     instruct it which replicas to fetch state from, wait for every
//     simultaneous failure's replacement to finish, then update routing.
// The orchestrator is off the data path: after deployment it exchanges
// only control messages.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "base/mutex.hpp"
#include "core/chain.hpp"
#include "runtime/worker.hpp"

namespace sfc::orch {

struct OrchestratorConfig {
  std::uint64_t heartbeat_interval_ns{10'000'000};  ///< Ping cadence.
  /// Silence threshold before a replica is declared failed. Generous by
  /// default: on an oversubscribed host a healthy replica's control
  /// thread can easily be starved for tens of milliseconds, and a false
  /// positive costs a full (if safe) replacement.
  std::uint64_t failure_timeout_ns{250'000'000};
  /// Simulated replica instantiation cost (container/VM spawn) added on
  /// top of the orchestrator<->site control RTT.
  std::uint64_t spawn_delay_ns{1'000'000};
};

/// Timing breakdown of one recovery, mirroring the paper's Figure 13
/// decomposition (initialization delay, state recovery delay; rerouting is
/// measured but negligible, as in the paper).
struct RecoveryReport {
  std::uint32_t position{0};
  net::NodeId failed_node{0};
  net::NodeId new_node{0};
  bool success{false};
  std::uint64_t initialization_ns{0};  ///< Spawn + init handshake.
  std::uint64_t state_recovery_ns{0};  ///< Parallel state fetch.
  std::uint64_t rerouting_ns{0};       ///< Routing-rule update.
  std::uint64_t total_ns{0};
};

class Orchestrator : rt::NonCopyable {
 public:
  Orchestrator(ftc::ChainRuntime& chain, OrchestratorConfig cfg = {});
  ~Orchestrator();

  /// Starts heartbeat monitoring (FTC chains only).
  void start();
  void stop();

  /// Recovers a set of simultaneously failed positions: spawns all
  /// replacements, waits for every state recovery to complete, then
  /// updates routing (paper §5.2). Returns one report per position.
  /// Thread-safe against the monitor (which uses the same path).
  std::vector<RecoveryReport> recover(const std::vector<std::uint32_t>& positions);

  /// All recoveries performed so far (monitor-initiated and manual).
  std::vector<RecoveryReport> reports() const;

  /// Number of failures detected by the heartbeat monitor.
  std::uint64_t failures_detected() const noexcept {
    return failures_detected_.load();
  }

 private:
  bool monitor_body();
  RecoveryReport recover_one_spawn(std::uint32_t position,
                                   ftc::FtcNode*& out_node);

  ftc::ChainRuntime& chain_;
  const OrchestratorConfig cfg_;
  net::ControlPlane& ctrl_;

  std::unique_ptr<rt::Worker> monitor_;
  std::uint64_t next_ping_ns_{0};
  std::uint64_t ping_seq_{0};
  std::map<net::NodeId, std::uint64_t> last_seen_ns_;

  mutable Mutex mutex_{ranks::kLeaf, "orch.reports"};
  std::vector<RecoveryReport> reports_ SFC_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> failures_detected_{0};

  obs::Counter* pings_sent_;
  obs::Counter* failures_counter_;
  obs::Counter* recoveries_;
};

}  // namespace sfc::orch
