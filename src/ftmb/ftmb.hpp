// FTMB baseline (paper §7.1's re-implementation of Sherry et al. [51]).
//
// Per middlebox, FTMB dedicates a second server running the input logger
// (IL) and output logger (OL); packets flow IL -> Master -> OL. The master
// tracks accesses to shared state with packet access logs (PALs) and
// transmits each PAL to the OL in a separate message; the OL releases a
// data packet only once its PALs have arrived. Following the paper's
// prototype simplifications: PALs are assumed delivered on the first
// attempt, the OL retains only the last PAL, and no snapshots are taken —
// making this an upper bound on the original system. The optional
// snapshot mode adds the paper's Figure-9 stall simulation (a 6 ms pause
// every 50 ms) on the master.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "mbox/middlebox.hpp"
#include "net/link.hpp"
#include "packet/packet_pool.hpp"
#include "runtime/meter.hpp"
#include "runtime/worker.hpp"

namespace sfc::ftmb {

/// Master server: runs the middlebox, emits PALs to the OL.
class FtmbMaster : rt::NonCopyable {
 public:
  FtmbMaster(std::uint32_t position, const ftc::ChainConfig& cfg,
             pkt::PacketPool& pool,
             std::function<std::unique_ptr<mbox::Middlebox>()> factory,
             bool snapshots)
      : position_(position),
        cfg_(cfg),
        pool_(pool),
        mbox_(factory ? factory() : nullptr),
        store_(cfg.num_partitions),
        txn_ctx_(store_),
        snapshots_(snapshots) {}

  ~FtmbMaster() { stop(); }

  /// @param in   Link from the IL.
  /// @param out  Link to the OL (carries data packets AND PAL packets).
  void attach_data_path(net::Port* in, net::Port* out) {
    in_link_.store(in);
    out_link_.store(out);
  }

  void start();
  void stop() { workers_.clear(); }

  const rt::Meter& meter() const noexcept { return meter_; }
  std::uint64_t pals_sent() const noexcept { return pals_sent_.load(); }
  std::uint64_t snapshot_stalls() const noexcept { return stalls_.load(); }

  /// Cumulative wall time spent in snapshot stalls. While a master
  /// checkpoints, the whole chain pipeline halts (paper §7.4). Stalls fall
  /// outside the profiled bursts, so benches charge them separately as a
  /// duty-cycle loss.
  std::uint64_t stall_ns_total() const noexcept {
    return stall_ns_total_.load(std::memory_order_relaxed);
  }

 private:
  bool worker_body(std::uint32_t thread_id);
  void maybe_snapshot_stall();

  const std::uint32_t position_;
  const ftc::ChainConfig& cfg_;
  pkt::PacketPool& pool_;
  std::unique_ptr<mbox::Middlebox> mbox_;
  state::StateStore store_;
  state::TxnContext txn_ctx_;
  const bool snapshots_;

  std::atomic<net::Port*> in_link_{nullptr};
  std::atomic<net::Port*> out_link_{nullptr};
  std::vector<std::unique_ptr<rt::Worker>> workers_;
  rt::Meter meter_;
  std::atomic<std::uint64_t> pals_sent_{0};
  std::atomic<std::uint64_t> drops_{0};

  // Snapshot stall machinery: when due, one thread stalls everyone by
  // setting pause_until; all threads spin it out (a stop-the-world
  // checkpoint, as the paper simulates for Figure 9).
  std::atomic<std::uint64_t> pause_until_ns_{0};
  std::atomic<std::uint64_t> next_snapshot_ns_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> stall_ns_total_{0};
};

/// Logger server: IL on the upstream side, OL on the downstream side.
class FtmbLogger : rt::NonCopyable {
 public:
  FtmbLogger(std::uint32_t position, const ftc::ChainConfig& cfg,
             pkt::PacketPool& pool)
      : position_(position), cfg_(cfg), pool_(pool) {}

  ~FtmbLogger() { stop(); }

  /// @param from_chain  Upstream traffic into the IL.
  /// @param to_master   IL -> master.
  /// @param from_master Master -> OL (data + PALs).
  /// @param to_chain    OL -> downstream.
  void attach(net::Port* from_chain, net::Port* to_master,
              net::Port* from_master, net::Port* to_chain) {
    from_chain_.store(from_chain);
    to_master_.store(to_master);
    from_master_.store(from_master);
    to_chain_.store(to_chain);
  }

  void start();
  void stop() { workers_.clear(); }

  std::uint64_t pals_received() const noexcept { return pals_received_.load(); }
  std::uint64_t inputs_logged() const noexcept { return inputs_logged_.load(); }

 private:
  bool worker_body();

  const std::uint32_t position_;
  const ftc::ChainConfig& cfg_;
  pkt::PacketPool& pool_;

  std::atomic<net::Port*> from_chain_{nullptr};
  std::atomic<net::Port*> to_master_{nullptr};
  std::atomic<net::Port*> from_master_{nullptr};
  std::atomic<net::Port*> to_chain_{nullptr};

  std::vector<std::unique_ptr<rt::Worker>> workers_;
  std::atomic<std::uint64_t> pals_received_{0};
  std::atomic<std::uint64_t> inputs_logged_{0};

  // IL input log: bounded ring of packet copies (replay storage). The
  // memcpy is the modeled cost; the paper's IL similarly retains inputs
  // since the last checkpoint.
  static constexpr std::size_t kInputLogSlots = 64;
  pkt::Packet input_log_[kInputLogSlots];
  std::atomic<std::size_t> input_log_pos_{0};
};

}  // namespace sfc::ftmb
