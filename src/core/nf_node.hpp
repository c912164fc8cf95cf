// NF baseline node (paper §7.1's "NF"): a middlebox server with no fault
// tolerance. Packets are parsed, run through the packet transaction (the
// middlebox's normal locking discipline), and forwarded — no piggyback
// messages, no replication, no logging.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "mbox/middlebox.hpp"
#include "net/link.hpp"
#include "obs/span.hpp"
#include "packet/packet_pool.hpp"
#include "runtime/meter.hpp"
#include "runtime/worker.hpp"

namespace sfc::ftc {

class NfNode : rt::NonCopyable {
 public:
  /// @param registry Span sink lookup for sampled-packet tracing; tracing
  ///                 is off for this node when null. NF nodes have no
  ///                 NodeId, so the span site is derived from the position
  ///                 (unambiguous: an NF chain has no FTC nodes).
  NfNode(std::uint32_t position, const ChainConfig& cfg, pkt::PacketPool& pool,
         std::function<std::unique_ptr<mbox::Middlebox>()> factory,
         obs::Registry* registry = nullptr)
      : position_(position),
        cfg_(cfg),
        pool_(pool),
        registry_(registry),
        mbox_(factory ? factory() : nullptr),
        store_(cfg.num_partitions),
        txn_ctx_(store_) {
    if (registry_ != nullptr) {
      registry_->name_span_site(obs::span_site_node(position_),
                                "nf pos" + std::to_string(position_));
    }
    burst_size_ = std::clamp<std::size_t>(cfg.burst_size, 1, kMaxBurst);
    // Single-threaded NF baseline gets the same lock-free commit path as
    // the FTC head, so fig5/fig9 comparisons isolate protocol cost rather
    // than locking discipline.
    if (cfg.threads_per_node == 1) {
      store_.enable_shard_affine();
      txn_ctx_.enable_shard_affine();
    }
  }

  ~NfNode() { stop(); }

  void attach_data_path(net::Port* in, net::Port* out) {
    in_link_.store(in);
    out_link_.store(out);
  }

  void start();
  void stop() { workers_.clear(); }

  const rt::Meter& meter() const noexcept { return meter_; }

  state::StateStore& store() noexcept { return store_; }
  mbox::Middlebox* middlebox() noexcept { return mbox_.get(); }
  std::uint64_t drops() const noexcept { return drops_.load(); }

 private:
  bool worker_body(std::uint32_t thread_id);
  /// Parse + transaction for one packet. Returns false when dropped.
  bool process_packet(pkt::Packet* p, std::uint32_t thread_id);

  const std::uint32_t position_;
  const ChainConfig& cfg_;
  pkt::PacketPool& pool_;
  obs::Registry* registry_{nullptr};
  std::unique_ptr<mbox::Middlebox> mbox_;
  state::StateStore store_;
  state::TxnContext txn_ctx_;

  std::atomic<net::Port*> in_link_{nullptr};
  std::atomic<net::Port*> out_link_{nullptr};
  std::vector<std::unique_ptr<rt::Worker>> workers_;
  rt::Meter meter_;
  std::atomic<std::uint64_t> drops_{0};
  std::size_t burst_size_{1};  ///< cfg.burst_size clamped to [1, kMaxBurst].
};

}  // namespace sfc::ftc
