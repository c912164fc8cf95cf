#include "core/chain.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

#include "obs/span.hpp"
#include "runtime/clock.hpp"
#include "state/shard_map.hpp"

namespace sfc::ftc {

namespace {

/// How long quiescent() waits for a node's in-flight token to drop before
/// naming it the blocker. An empty poll holds it for well under this.
constexpr std::uint64_t kInFlightWaitNs = 1'000'000;

}  // namespace

ChainRuntime::ChainRuntime(Spec spec) : spec_(std::move(spec)) {
  assert(!spec_.mbox_factories.empty());
  // Every worker owns a share of each replica store's partitions.
  assert(spec_.cfg.threads_per_node >= 1 &&
         spec_.cfg.threads_per_node <= state::ShardMap::kMaxWorkers);
  const auto n = static_cast<std::uint32_t>(spec_.mbox_factories.size());
  // Chains shorter than f+1 are extended with pure replica positions
  // before the buffer (paper §5.1).
  ring_size_ = spec_.mode == ChainMode::kFtc ? std::max(n, spec_.cfg.f + 1) : n;
  if (spec_.cfg.profile || spec_.cfg.quiet_assert) {
    profiler_ = std::make_unique<obs::HotProfiler>();
    // Process-global gate: if another chain already installed a profiler,
    // this one stays dormant (its report stays empty) rather than mixing
    // two chains' attributions.
    install_hot_profiler(profiler_.get());
    profiler_->export_metrics(registry_);
  }
  pool_ = std::make_unique<pkt::PacketPool>(spec_.cfg.pool_packets);
  internal_pool_ = std::make_unique<pkt::PacketPool>(
      std::max<std::size_t>(2048, spec_.cfg.pool_packets / 4));
  registry_.gauge_fn("pool.free_retries", {{"pool", "data"}}, [this] {
    return static_cast<double>(pool_->free_retries());
  });
  registry_.gauge_fn("pool.free_retries", {{"pool", "internal"}}, [this] {
    return static_cast<double>(internal_pool_->free_retries());
  });
  registry_.gauge_fn("pool.alloc_failures", {{"pool", "data"}}, [this] {
    return static_cast<double>(pool_->alloc_failures());
  });
  registry_.gauge_fn("pool.alloc_failures", {{"pool", "internal"}}, [this] {
    return static_cast<double>(internal_pool_->alloc_failures());
  });
  registry_.gauge_fn("pool.carved", {{"pool", "data"}}, [this] {
    return static_cast<double>(pool_->carved());
  });
  registry_.gauge_fn("pool.carved", {{"pool", "internal"}}, [this] {
    return static_cast<double>(internal_pool_->carved());
  });

  switch (spec_.mode) {
    case ChainMode::kFtc:
      build_ftc();
      break;
    case ChainMode::kNf:
      build_nf();
      break;
    case ChainMode::kFtmb:
      build_ftmb(false);
      break;
    case ChainMode::kFtmbSnapshot:
      build_ftmb(true);
      break;
  }
}

ChainRuntime::~ChainRuntime() { stop(); }

FtcNode::MboxFactory ChainRuntime::factory_for(std::uint32_t position) const {
  return position < spec_.mbox_factories.size() ? spec_.mbox_factories[position]
                                                : FtcNode::MboxFactory{};
}

std::unique_ptr<net::Port> ChainRuntime::make_segment(std::uint32_t i) {
  const std::string name = "seg" + std::to_string(i);
  if (spec_.cfg.transport == TransportMode::kReliable) {
    return std::make_unique<net::ReliableChannel>(
        *pool_, spec_.cfg.link, spec_.cfg.reliable, &registry_, name,
        obs::span_site_link(i));
  }
  return std::make_unique<net::Link>(*pool_, spec_.cfg.link, &registry_, name,
                                     obs::span_site_link(i));
}

void ChainRuntime::build_ftc() {
  for (std::uint32_t i = 0; i < ring_size_; ++i) {
    links_.push_back(make_segment(i));
  }
  egress_link_ = std::make_unique<net::Link>(*pool_, net::LinkConfig{},
                                             &registry_, "egress",
                                             obs::span_site_link(kEgressLinkSite));
  feedback_ = std::make_unique<FeedbackChannel>();
  forwarder_ = std::make_unique<Forwarder>(*feedback_, spec_.cfg);
  buffer_ = std::make_unique<EgressBuffer>(*internal_pool_, *egress_link_,
                                           *feedback_, &registry_);
  registry_.gauge_fn("forwarder.feedback_pending", {{"node", "fwd"}}, [this] {
    return static_cast<double>(feedback_->pending_approx());
  });

  ftc_at_ = std::vector<std::atomic<FtcNode*>>(ring_size_);
  for (std::uint32_t i = 0; i < ring_size_; ++i) {
    FtcNode::Params params;
    params.id = next_node_id_++;
    params.position = i;
    params.ring_size = ring_size_;
    params.num_mboxes = num_mboxes();
    params.cfg = &spec_.cfg;
    params.pool = internal_pool_.get();
    params.ctrl = &ctrl_;
    params.registry = &registry_;
    params.buffer = i == ring_size_ - 1 ? buffer_.get() : nullptr;
    params.mbox_factory = factory_for(i);
    auto node = std::make_unique<FtcNode>(params);
    node->attach_data_path(links_[i].get(),
                           i + 1 < ring_size_ ? links_[i + 1].get() : nullptr,
                           i == 0 ? forwarder_.get() : nullptr);
    ftc_at_[i].store(node.get(), std::memory_order_release);
    ftc_nodes_.push_back(std::move(node));
  }
  for (std::uint32_t i = 0; i < ring_size_; ++i) {
    FtcNode* pred =
        ftc_at_[(i + ring_size_ - 1) % ring_size_].load(std::memory_order_relaxed);
    ftc_at_[i].load(std::memory_order_relaxed)->set_ring_pred(pred->id());
  }
}

void ChainRuntime::build_nf() {
  for (std::uint32_t i = 0; i < ring_size_; ++i) {
    links_.push_back(make_segment(i));
  }
  egress_link_ = std::make_unique<net::Link>(*pool_, net::LinkConfig{},
                                             &registry_, "egress",
                                             obs::span_site_link(kEgressLinkSite));
  for (std::uint32_t i = 0; i < ring_size_; ++i) {
    auto node = std::make_unique<NfNode>(i, spec_.cfg, *internal_pool_,
                                         factory_for(i), &registry_);
    node->attach_data_path(links_[i].get(), i + 1 < ring_size_
                                                ? links_[i + 1].get()
                                                : egress_link_.get());
    nf_nodes_.push_back(std::move(node));
  }
}

void ChainRuntime::build_ftmb(bool snapshots) {
  // Segment links feed each middlebox's logger; two internal links connect
  // logger <-> master (the paper's dedicated logger server per middlebox).
  for (std::uint32_t i = 0; i < ring_size_; ++i) {
    links_.push_back(make_segment(i));
  }
  egress_link_ = std::make_unique<net::Link>(*pool_, net::LinkConfig{});

  for (std::uint32_t i = 0; i < ring_size_; ++i) {
    auto il_to_m = std::make_unique<net::Link>(*pool_, spec_.cfg.link);
    auto m_to_ol = std::make_unique<net::Link>(*pool_, spec_.cfg.link);

    auto logger = std::make_unique<ftmb::FtmbLogger>(i, spec_.cfg,
                                                     *internal_pool_);
    auto master = std::make_unique<ftmb::FtmbMaster>(
        i, spec_.cfg, *internal_pool_, factory_for(i), snapshots);
    logger->attach(links_[i].get(), il_to_m.get(), m_to_ol.get(),
                   i + 1 < ring_size_ ? links_[i + 1].get()
                                      : egress_link_.get());
    master->attach_data_path(il_to_m.get(), m_to_ol.get());

    ftmb_links_.push_back(std::move(il_to_m));
    ftmb_links_.push_back(std::move(m_to_ol));
    ftmb_loggers_.push_back(std::move(logger));
    ftmb_masters_.push_back(std::move(master));
  }
}

void ChainRuntime::start() {
  if (started_) return;
  started_ = true;
  for (auto& node : ftc_nodes_) node->start();
  for (auto& node : nf_nodes_) node->start();
  for (auto& node : ftmb_loggers_) node->start();
  for (auto& node : ftmb_masters_) node->start();
}

void ChainRuntime::stop() {
  for (auto& node : ftc_nodes_) node->stop();
  for (auto& node : nf_nodes_) node->stop();
  for (auto& node : ftmb_masters_) node->stop();
  for (auto& node : ftmb_loggers_) node->stop();
  if (profiler_) {
    // Re-export now that every worker thread has registered its slot, so
    // a registry snapshot taken after stop() carries per-worker rows.
    profiler_->export_metrics(registry_);
  }
  started_ = false;
}

std::uint64_t ChainRuntime::egress_packets() const noexcept {
  return egress_link_ ? egress_link_->stats().sent : 0;
}

std::string QuiescenceReport::to_string() const {
  const std::string pos = std::to_string(position);
  const std::string n = std::to_string(count);
  switch (blocker) {
    case Blocker::kNone:
      return "quiescent";
    case Blocker::kLink:
      return "link " + pos + ": " + n + " queued";
    case Blocker::kFtmbLink:
      return "ftmb link " + pos + ": " + n + " queued";
    case Blocker::kFeedback:
      return "feedback: " + n + " pending";
    case Blocker::kBuffer:
      return "buffer: " + n + " held or staged";
    case Blocker::kParked:
      return "node pos " + pos + ": " + n + " parked";
    case Blocker::kHandoff:
      return "node pos " + pos + ": handoff pending";
    case Blocker::kTxHeld:
      return "node pos " + pos + ": " + n + " held for a full port";
    case Blocker::kInFlight:
      return "node pos " + pos + ": " + n + " passes in flight";
    case Blocker::kProgress:
      return "progress: " + n + " passes finished during the check";
  }
  return "unknown";
}

QuiescenceReport ChainRuntime::quiescent() {
  using Blocker = QuiescenceReport::Blocker;
  const auto queued = [](const net::Port& port) {
    const net::LinkStats st = port.stats();
    const std::uint64_t out = st.delivered + st.dropped_loss;
    return st.sent > out ? st.sent - out : 0;
  };
  // Which node serves each position and how many bursts it has finished.
  // Read before and after the scan: a burst that finished in between moved
  // work, possibly into a place the scan had already passed.
  const auto collect = [this] {
    std::vector<std::pair<FtcNode*, std::uint64_t>> done;
    done.reserve(ftc_at_.size());
    for (auto& slot : ftc_at_) {
      FtcNode* node = slot.load(std::memory_order_acquire);
      done.emplace_back(node, node != nullptr ? node->bursts_done() : 0);
    }
    return done;
  };
  const auto before = collect();

  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    if (!links_[i]->drained()) return {Blocker::kLink, i, queued(*links_[i])};
  }
  for (std::uint32_t i = 0; i < ftmb_links_.size(); ++i) {
    if (!ftmb_links_[i]->drained()) {
      return {Blocker::kFtmbLink, i, queued(*ftmb_links_[i])};
    }
  }
  if (feedback_ && feedback_->pending_approx() != 0) {
    return {Blocker::kFeedback, 0, feedback_->pending_approx()};
  }
  if (buffer_) {
    // Held packets, and batches of packets and feedback records that
    // submit_wire() filled and end_burst() has not shipped yet.
    if (const std::size_t n = buffer_->held_count() + buffer_->staged_count()) {
      return {Blocker::kBuffer, 0, n};
    }
  }
  for (std::uint32_t pos = 0; pos < ftc_at_.size(); ++pos) {
    FtcNode* node = ftc_at_[pos].load(std::memory_order_acquire);
    if (node == nullptr) continue;
    if (const std::size_t parked = node->parked_count(); parked != 0) {
      return {Blocker::kParked, pos, parked};
    }
    // Shard mode: a cross-shard portion sitting in a handoff ring counted
    // as applied at classification, but its writes reach the store only at
    // the owner's drain.
    if (node->handoff_pending()) return {Blocker::kHandoff, pos, 1};
    if (const std::size_t held = node->tx_held(); held != 0) {
      return {Blocker::kTxHeld, pos, held};
    }
    // A burst a worker has popped but not finished is in no link queue yet
    // still carries unapplied logs; likewise parked packets or handoff
    // portions a drain has taken out. Every worker pass holds a token from
    // before it takes anything to its end, so checked after the links, the
    // parked list and the handoff rings, a raised token may hide work. An
    // idle worker's empty passes raise it too, so wait for it to drop: work
    // a pass held shows up below as a finished pass, an empty one leaves no
    // trace.
    const std::uint64_t give_up = rt::now_ns() + kInFlightWaitNs;
    while (const std::uint32_t held = node->passes_in_flight()) {
      if (rt::now_ns() > give_up) return {Blocker::kInFlight, pos, held};
      std::this_thread::yield();
    }
  }
  const auto after = collect();
  std::uint64_t moved = 0;
  for (std::size_t pos = 0; pos < before.size(); ++pos) {
    if (before[pos].first != after[pos].first) {
      // Rewired mid-check: the new node's history is not comparable.
      return {Blocker::kProgress, static_cast<std::uint32_t>(pos), 1};
    }
    moved += after[pos].second - before[pos].second;
  }
  if (moved != 0) return {Blocker::kProgress, 0, moved};
  return {};
}

void ChainRuntime::fail_position(std::uint32_t position) {
  if (position < ftc_at_.size()) {
    if (FtcNode* node = ftc_at_[position].load(std::memory_order_acquire)) {
      node->fail();
    }
  }
}

FtcNode* ChainRuntime::spawn_replacement(std::uint32_t position) {
  FtcNode::Params params;
  params.id = next_node_id_++;
  params.position = position;
  params.ring_size = ring_size_;
  params.num_mboxes = num_mboxes();
  params.cfg = &spec_.cfg;
  params.pool = internal_pool_.get();
  params.ctrl = &ctrl_;
  params.registry = &registry_;
  params.buffer = position == ring_size_ - 1 ? buffer_.get() : nullptr;
  params.mbox_factory = factory_for(position);
  auto node = std::make_unique<FtcNode>(params);
  FtcNode* raw = node.get();
  if (const auto it = position_region_.find(position);
      it != position_region_.end()) {
    ctrl_.set_region(raw->id(), it->second);
  }
  // Its workers start now; off the data path, worker 0 serves only the
  // control step (the fetch) until wire_replacement attaches it.
  node->start();
  ftc_nodes_.push_back(std::move(node));
  return raw;
}

bool ChainRuntime::successor_caught_up(std::uint32_t position) {
  const std::uint32_t succ = (position + 1) % ring_size_;
  FtcNode* node = ftc_node(succ);
  if (node == nullptr || node->has_failed()) return true;
  const bool path_drained = succ != 0 ? links_[succ]->drained()
                                      : feedback_->pending_approx() == 0;
  return path_drained && node->passes_in_flight() == 0 &&
         !node->handoff_pending();
}

std::vector<std::pair<MboxId, net::NodeId>> ChainRuntime::recovery_sources(
    std::uint32_t position) const {
  // Paper §5.2: the failed head's state comes from the immediate successor
  // in its own group, every applier store from the immediate predecessor.
  // Under simultaneous failures the immediate neighbor may itself be dead;
  // the orchestrator then re-initializes with "the new set of alive
  // replicas" — modeled here by falling back to the nearest alive member
  // of the same replication group (safe: every member's state is a
  // prefix-or-equal of the head's by the log propagation invariant). Logs
  // still in flight would NOT be recognized as duplicates: they carry the
  // sequence numbers the recovered head continues from. The orchestrator
  // waits for successor_caught_up() first so none are in flight to the
  // immediate successor.
  const auto alive = [&](std::uint32_t pos) -> FtcNode* {
    FtcNode* node = ftc_at_[pos].load(std::memory_order_acquire);
    return node != nullptr && !node->has_failed() ? node : nullptr;
  };

  std::vector<std::pair<MboxId, net::NodeId>> sources;
  if (position < num_mboxes()) {
    // Own store: search the successors in the group, nearest first.
    for (std::uint32_t k = 1; k <= spec_.cfg.f && k < ring_size_; ++k) {
      if (FtcNode* node = alive((position + k) % ring_size_)) {
        sources.emplace_back(position, node->id());
        break;
      }
    }
  }
  for (std::uint32_t k = 1; k <= spec_.cfg.f && k < ring_size_; ++k) {
    const std::uint32_t m = (position + ring_size_ - k) % ring_size_;
    if (m >= num_mboxes()) continue;
    // Applier store for middlebox m: group members are positions
    // m .. m+f. Prefer the immediate ring predecessor, then walk the
    // group (the head m last resort — it always has the freshest state).
    FtcNode* source = nullptr;
    for (std::uint32_t back = 1; back <= spec_.cfg.f - k + 1 + spec_.cfg.f;
         ++back) {
      const std::uint32_t cand = (position + ring_size_ - back) % ring_size_;
      // Stop once we walk past the group's head.
      if (source == nullptr) source = alive(cand);
      if (cand == m) break;
    }
    if (source == nullptr) {
      // Walk forward through later group members (position+1 .. m+f).
      for (std::uint32_t fwd = (position + 1) % ring_size_;
           fwd != (m + spec_.cfg.f + 1) % ring_size_;
           fwd = (fwd + 1) % ring_size_) {
        if ((source = alive(fwd)) != nullptr) break;
      }
    }
    if (source != nullptr) sources.emplace_back(m, source->id());
  }
  return sources;
}

void ChainRuntime::wire_replacement(std::uint32_t position, FtcNode* node) {
  // The position's previous occupant must be fully out of the data path
  // before the replacement attaches: if the detection was a false
  // positive (a healthy node silenced by scheduling delay), two consumers
  // on one link would split the flow across divergent stores.
  if (FtcNode* old_node = ftc_at_[position].load(std::memory_order_acquire)) {
    if (!old_node->has_failed()) old_node->fail();
  }
  node->set_ring_pred(ftc_at_[(position + ring_size_ - 1) % ring_size_]
                          .load(std::memory_order_acquire)
                          ->id());
  ftc_at_[position].store(node, std::memory_order_release);
  // Refresh the successor's notion of its ring predecessor (NACK target).
  const std::uint32_t succ = (position + 1) % ring_size_;
  ftc_at_[succ].load(std::memory_order_acquire)->set_ring_pred(node->id());
  // Last: publishes the links and the forwarder to the running worker.
  node->attach_data_path(links_[position].get(),
                         position + 1 < ring_size_ ? links_[position + 1].get()
                                                   : nullptr,
                         position == 0 ? forwarder_.get() : nullptr);
}

void ChainRuntime::set_position_region(std::uint32_t position,
                                       std::uint32_t region) {
  position_region_[position] = region;
  if (position < ftc_at_.size()) {
    if (FtcNode* node = ftc_at_[position].load(std::memory_order_acquire)) {
      ctrl_.set_region(node->id(), region);
    }
  }
}

}  // namespace sfc::ftc
