// Forwarder and the buffer->forwarder feedback channel (paper §5).
//
// The egress buffer strips each packet's piggyback message and hands its
// surviving log records to the forwarder at the chain ingress; the
// forwarder attaches pending records to incoming packets (merging several
// hand-offs if the ingress is slower than the egress) so the state of
// chain-end middleboxes replicates at the chain-start servers. When the
// chain is idle, the forwarder emits propagating packets instead.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "base/mutex.hpp"
#include "core/config.hpp"
#include "core/piggyback.hpp"
#include "packet/packet_io.hpp"
#include "packet/packet_pool.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/small_vector.hpp"
#include "runtime/worker.hpp"

namespace sfc::ftc {

/// Piggyback log records in wire form (PiggybackView::log_bytes), back to
/// back, on their way from the egress buffer to the forwarder. Feedback
/// carries no commit vectors, so a record's bytes do not depend on where
/// in a message it sits: the head copies them into tailroom unchanged.
struct FeedbackLogs {
  std::vector<std::uint8_t> bytes;
  rt::SmallVector<std::uint32_t, 8> sizes;  ///< One per record, in order.

  bool empty() const noexcept { return sizes.empty(); }
  std::size_t count() const noexcept { return sizes.size(); }

  /// Empties it and keeps the storage (a recycled hand-off).
  void clear() noexcept {
    bytes.clear();
    sizes.clear();
  }

  void add_record(std::span<const std::uint8_t> record) {
    bytes.insert(bytes.end(), record.begin(), record.end());
    sizes.push_back(static_cast<std::uint32_t>(record.size()));
  }

  /// Drops the first @p n records (@p n_bytes bytes), keeping the rest in
  /// place.
  void drop_front(std::size_t n, std::size_t n_bytes) {
    bytes.erase(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n_bytes));
    for (std::size_t i = n; i < sizes.size(); ++i) sizes[i - n] = sizes[i];
    while (n-- > 0) sizes.pop_back();
  }
};

/// The paper's dedicated state-dissemination link from the buffer back to
/// the forwarder (their testbed used a separate 10 GbE link).
class FeedbackChannel : rt::NonCopyable {
 public:
  /// Hand-offs kept for reuse: a few per burst in flight between the
  /// buffer and the head is all a chain needs.
  static constexpr std::size_t kSpares = 64;

  explicit FeedbackChannel(std::size_t capacity = 1024)
      : queue_(capacity), spares_(kSpares) {}

  void push(FeedbackLogs&& logs) {
    // The channel must not lose state: if the consumer lags, spin-yield.
    // A worker being stopped gives up instead: the head may already have
    // stopped, and then nothing will ever drain the channel.
    while (!queue_.try_push(std::move(logs))) {
      if (rt::stop_requested()) return;
      std::this_thread::yield();
    }
  }

  /// Returns records a collect could not fit; they leave first next time
  /// (the latest returned first: a collect returns what it popped last).
  void push_front(FeedbackLogs&& logs) {
    LockGuard lock(mutex_);
    returned_.push_back(std::move(logs));
    returned_count_.store(returned_.size(), std::memory_order_release);
  }

  std::optional<FeedbackLogs> pop() {
    if (returned_count_.load(std::memory_order_acquire) != 0) {
      LockGuard lock(mutex_);
      if (!returned_.empty()) {
        FeedbackLogs out = std::move(returned_.back());
        returned_.pop_back();
        returned_count_.store(returned_.size(), std::memory_order_release);
        return out;
      }
    }
    return queue_.try_pop();
  }

  /// Returns a hand-off whose records were consumed, so its storage
  /// carries the next one (the buffer stages into spare()). Freed when
  /// enough spares wait already.
  void recycle(FeedbackLogs&& logs) noexcept {
    if (logs.bytes.capacity() == 0) return;  // Nothing worth keeping.
    logs.clear();
    (void)spares_.try_push(std::move(logs));
  }

  /// An empty hand-off, with recycled storage when one is spare.
  FeedbackLogs spare() noexcept {
    if (auto s = spares_.try_pop()) return std::move(*s);
    return {};
  }

  /// True while records a collect could not fit are waiting.
  bool left_behind() const noexcept {
    return returned_count_.load(std::memory_order_acquire) != 0;
  }

  std::size_t pending_approx() const noexcept {
    return queue_.size_approx() +
           returned_count_.load(std::memory_order_acquire);
  }

 private:
  rt::MpmcQueue<FeedbackLogs> queue_;
  rt::MpmcQueue<FeedbackLogs> spares_;
  mutable Mutex mutex_{ranks::kLeaf, "ftc.feedback_returned"};
  /// A stack that keeps its capacity: returning records allocates nothing.
  std::vector<FeedbackLogs> returned_ SFC_GUARDED_BY(mutex_);
  std::atomic<std::size_t> returned_count_{0};
};

class Forwarder : rt::NonCopyable {
 public:
  /// Frame length of a propagating packet (no user payload).
  static constexpr std::size_t kPropagatingFrameLen = 64;
  /// Record bytes one collect() may return: what a fresh propagating
  /// packet's tailroom holds after the message header and footer. Every
  /// record fits: it reached the buffer in the tailroom of a frame no
  /// shorter than a propagating packet's (data frames are >= 64 B).
  static constexpr std::size_t kFeedbackBudget =
      pkt::Packet::kCapacity - pkt::Packet::kDefaultHeadroom -
      kPropagatingFrameLen - kWireHeaderSize - kFooterSize;

  Forwarder(FeedbackChannel& feedback, const ChainConfig& cfg)
      : feedback_(feedback), cfg_(cfg) {}

  /// Collects pending feedback records to ride on a packet: whole records,
  /// from at most forwarder_merge_limit hand-offs, that together fit
  /// @p budget bytes — never more than a fresh propagating packet holds.
  /// Records past that bound stay pending, first in line, and lead the
  /// next burst on a propagating packet (left_behind()).
  /// Hand the result back with recycle() once its records are attached.
  FeedbackLogs collect(std::size_t budget = kFeedbackBudget) {
    budget = std::min(budget, kFeedbackBudget);
    FeedbackLogs out;
    for (std::size_t i = 0; i < cfg_.forwarder_merge_limit; ++i) {
      auto run = feedback_.pop();
      if (!run) break;
      std::size_t fit = 0;
      std::size_t fit_bytes = 0;
      for (const std::uint32_t size : run->sizes) {
        if (out.bytes.size() + fit_bytes + size > budget) break;
        fit_bytes += size;
        ++fit;
      }
      if (fit == run->count() && out.empty()) {
        // Common case: one hand-off, no copy. The empty `out` it replaces
        // owns no storage yet.
        out = std::move(*run);
        continue;
      }
      if (fit != 0) {
        // Merge: the fitting records join `out` (in recycled storage when
        // `out` has none yet).
        if (out.bytes.capacity() == 0) out = feedback_.spare();
        out.bytes.insert(out.bytes.end(), run->bytes.begin(),
                         run->bytes.begin() + static_cast<std::ptrdiff_t>(fit_bytes));
        for (std::size_t r = 0; r < fit; ++r) out.sizes.push_back(run->sizes[r]);
      }
      if (fit == run->count()) {
        feedback_.recycle(std::move(*run));
        continue;
      }
      // The rest stays pending, first in line, in the hand-off's own storage.
      run->drop_front(fit, fit_bytes);
      feedback_.push_front(std::move(*run));
      break;
    }
    return out;
  }

  /// Returns a collected hand-off's storage to the channel.
  void recycle(FeedbackLogs&& logs) noexcept { feedback_.recycle(std::move(logs)); }

  /// True while records are pending: an ingress that polls nothing sends
  /// them on a propagating packet rather than wait for the next data
  /// packet (paper §5.1: "when the chain is idle").
  bool propagation_due() const noexcept { return feedback_.pending_approx() > 0; }

  /// True while records a collect could not fit are waiting: they lead
  /// the next burst, so data frames too full to carry them cannot starve
  /// them.
  bool left_behind() const noexcept { return feedback_.left_behind(); }

  /// Builds a propagating packet (no user payload; skips middleboxes).
  static pkt::Packet* make_propagating_packet(pkt::PacketPool& pool) {
    pkt::Packet* p = pool.alloc_raw();
    if (p == nullptr) return nullptr;
    pkt::FlowKey ctrl{0x7f000001, 0x7f000002, 9999, 9999,
                      pkt::Ipv4Header::kProtoUdp};
    pkt::PacketBuilder(*p).udp(ctrl, kPropagatingFrameLen);
    p->anno().is_control = true;
    return p;
  }

 private:
  FeedbackChannel& feedback_;
  const ChainConfig& cfg_;
};

}  // namespace sfc::ftc
