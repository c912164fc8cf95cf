// Chain-level configuration shared by all runtime modes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/link.hpp"
#include "net/reliable.hpp"

namespace sfc::ftc {

/// Which fault-tolerance machinery a chain runs with (paper §7.1).
enum class ChainMode : std::uint8_t {
  kNf,            ///< No fault tolerance (baseline "NF").
  kFtc,           ///< This paper's system.
  kFtmb,          ///< FTMB upper bound: PAL logging, no snapshots.
  kFtmbSnapshot,  ///< FTMB with simulated periodic snapshot stalls (Fig. 9).
};

constexpr const char* to_string(ChainMode m) noexcept {
  switch (m) {
    case ChainMode::kNf: return "NF";
    case ChainMode::kFtc: return "FTC";
    case ChainMode::kFtmb: return "FTMB";
    case ChainMode::kFtmbSnapshot: return "FTMB+Snapshot";
  }
  return "?";
}

/// Upper bound on the data-path burst size (rx/tx arrays live on worker
/// stacks; DPDK caps its burst the same way).
inline constexpr std::size_t kMaxBurst = 256;

/// What carries packets between chain segments.
enum class TransportMode : std::uint8_t {
  kRaw,       ///< Bare simulated links: wire loss is end-to-end loss.
  kReliable,  ///< net::ReliableChannel per segment: windowed, adaptive-RTO
              ///< retransmission hides wire loss from the chain.
};

constexpr const char* to_string(TransportMode t) noexcept {
  switch (t) {
    case TransportMode::kRaw: return "raw";
    case TransportMode::kReliable: return "reliable";
  }
  return "?";
}

struct ChainConfig {
  /// Failures tolerated: each middlebox's state is replicated on f+1
  /// servers along the chain.
  std::uint32_t f{1};

  /// Rx/tx burst size on the data path (Click/DPDK-style batching, the
  /// amortization the paper's 10 GbE line-rate numbers rely on): workers
  /// poll up to this many packets per iteration, hoist per-packet
  /// bookkeeping into per-burst accumulators, and stage egress into one
  /// bulk send. 1 = per-packet (pre-batching) behavior. Clamped to
  /// [1, kMaxBurst]. Protocol semantics are burst-invariant: parks, NACKs,
  /// and commit attach all operate per packet.
  std::size_t burst_size{32};

  /// State partitions per store (the paper picks this above the maximum
  /// core count to reduce lock contention). Power of two, <= 64.
  std::size_t num_partitions{16};

  /// Packet-processing threads per server, in [1, ShardMap::kMaxWorkers]:
  /// each worker owns a share of every replica store's partitions. The
  /// head's transaction fast path engages only at 1 (multi-threaded heads
  /// keep wound-wait 2PL, which IS the concurrency control there).
  std::size_t threads_per_node{1};

  /// Per-ring entry capacity of the cross-shard handoff mesh that carries
  /// a replica's writes to their partition's owning worker (shard_map.hpp).
  /// A full target ring holds the whole log (all-or-nothing), so
  /// undersizing converts cross-shard bursts into parks, not corruption.
  std::size_t handoff_capacity{512};

  /// Shared packet pool size.
  std::size_t pool_packets{8192};

  /// Template for the inter-server data-plane links.
  net::LinkConfig link{};

  /// Segment transport: raw links or windowed reliable channels.
  TransportMode transport{TransportMode::kRaw};

  /// Window/RTO parameters when transport == kReliable.
  net::ReliableConfig reliable{};

  /// A replica holding an out-of-order piggyback log this long requests a
  /// retransmission from its predecessor (paper §4.1). With a reliable
  /// transport underneath, the parked-work timeout instead tracks the
  /// channel's adaptive RTO; this fixed value then acts as the CEILING of
  /// the clamp (and remains the exact timeout on raw links).
  std::uint64_t retransmit_timeout_ns{3'000'000};

  /// Floor of the adaptive parked-work timeout clamp (only used when the
  /// ingress transport exposes an RTO estimate).
  std::uint64_t retransmit_timeout_floor_ns{200'000};

  /// Minimum spacing between retransmit requests for the same store.
  std::uint64_t nack_min_gap_ns{1'000'000};

  /// Maximum feedback messages the forwarder merges onto one packet.
  std::size_t forwarder_merge_limit{8};

  /// Retained piggyback logs per store for retransmission; pruned by
  /// commit vectors, bounded by this capacity.
  std::size_t history_capacity{65536};

  /// FTMB snapshot simulation (paper §7.4: 6 ms stall every 50 ms).
  std::uint64_t snapshot_interval_ns{50'000'000};
  std::uint64_t snapshot_stall_ns{6'000'000};

  /// Install the hot-path budget profiler (obs/prof) for this chain: every
  /// worker attributes per-packet cycles to pipeline stages and the chain
  /// exports a table2-style live budget through the registry. Off by
  /// default; the disabled data path pays one load + branch per
  /// instrumentation point.
  bool profile{false};

  /// Quiet mode: the profiler is installed and, once armed (after warmup,
  /// via HotProfiler::arm_quiet), any data-path allocation failure, pool
  /// free-retry, contended partition-lock acquisition, or blocking-send
  /// retry is recorded as a steady-state violation. Implies `profile`.
  bool quiet_assert{false};
};

}  // namespace sfc::ftc
