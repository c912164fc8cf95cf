#include "core/node.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include <sys/resource.h>

#include "obs/prof.hpp"
#include "obs/span.hpp"
#include "runtime/clock.hpp"
#include "runtime/logging.hpp"

namespace sfc::ftc {

namespace {

/// Cadence of the control step's periodic duties (park timeouts, commit
/// notices), and the longest a saturated worker 0 goes between inbox checks.
constexpr std::uint64_t kControlPeriodNs = 200'000;

/// Longest a pass waits on its successor's full port before it holds the
/// rest of its packets for the next pass: well under a control period, so
/// a successor that stopped consuming (a failed node behind a reliable
/// channel) cannot keep worker 0 from its control step.
constexpr std::uint64_t kTxWaitNs = kControlPeriodNs / 4;

/// Cold path of the tracing branch: call only after trace_id != 0 (or,
/// for protocol-rate spans on recovery and protocol trace ids,
/// unconditionally — the sink check is the gate).
inline void span_event(obs::Registry* reg, std::uint32_t site,
                       std::uint64_t trace_id, obs::SpanKind kind,
                       std::uint64_t a = 0) noexcept {
  if (auto* sink = reg->span_sink()) {
    sink->record(obs::SpanRecord{trace_id, rt::now_ns(), a, site, kind});
  }
}

// Per-thread burst scope, filled at the top of every worker pass: the
// pass's egress packets are staged in `tx` (shipped with one send_burst)
// or in `egress`, and the per-packet bookkeeping (meter, packets_processed)
// accumulates here, all shipped once per pass. Only worker passes process
// packets, so every emit stages. `prof` carries the burst's budget stage
// marks (obs/prof); outside an open profiled burst every mark is one
// branch.
struct BurstScope {
  sfc::net::Port* out{nullptr};
  /// The burst's egress-buffer batch (last position only).
  sfc::ftc::EgressBuffer::Batch* egress{nullptr};
  std::size_t n_tx{0};
  std::uint64_t data_packets{0};
  std::uint64_t data_bytes{0};
  std::uint64_t control_packets{0};
  obs::ProfBurst prof;
  pkt::Packet* tx[sfc::ftc::kMaxBurst];
};
thread_local BurstScope t_burst;

/// Starts fetching what opening @p p's view touches: the frame's first
/// line (the parser's headers) and the last two lines, where the
/// piggyback footer and the end of its body sit and where the head writes
/// its feedback. Reads only the header line (data offset and size).
inline void prefetch_frame(const pkt::Packet& p) noexcept {
  const std::uint8_t* const d = p.data();
  const std::size_t n = p.size();
  __builtin_prefetch(d);
  __builtin_prefetch(d + n - (n > 64 ? 64 : 0));
  __builtin_prefetch(d + n);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 4);
}

bool take_u32(std::span<const std::uint8_t>& in, std::uint32_t& v) {
  if (in.size() < 4) return false;
  std::memcpy(&v, in.data(), 4);
  in = in.subspan(4);
  return true;
}

void put_max(std::vector<std::uint8_t>& out, const MaxVector& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.seq.data());
  out.insert(out.end(), p, p + sizeof(v.seq));
}

bool take_max(std::span<const std::uint8_t>& in, MaxVector& v) {
  if (in.size() < sizeof(v.seq)) return false;
  std::memcpy(v.seq.data(), in.data(), sizeof(v.seq));
  in = in.subspan(sizeof(v.seq));
  return true;
}

/// Minor page faults the calling thread has taken so far (those served
/// from MADV_POPULATE_WRITE count too, as the kernel accounts them).
std::uint64_t thread_minor_faults() noexcept {
  rusage ru{};
  if (::getrusage(RUSAGE_THREAD, &ru) != 0) return 0;
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

}  // namespace

FtcNode::FtcNode(Params params)
    : id_(params.id),
      position_(params.position),
      ring_size_(params.ring_size),
      num_mboxes_(params.num_mboxes),
      cfg_(*params.cfg),
      pool_(*params.pool),
      ctrl_(*params.ctrl),
      inbox_(params.ctrl->register_node(params.id)),
      buffer_(params.buffer) {
  if (params.registry != nullptr) {
    registry_ = params.registry;
  } else {
    own_registry_ = std::make_unique<obs::Registry>();
    registry_ = own_registry_.get();
  }
  const obs::Labels labels{{"node", std::to_string(id_)},
                           {"pos", std::to_string(position_)}};
  stats_.packets_processed = &registry_->counter("node.packets_processed", labels);
  stats_.control_packets = &registry_->counter("node.control_packets", labels);
  stats_.logs_applied = &registry_->counter("node.logs_applied", labels);
  stats_.logs_duplicate = &registry_->counter("node.logs_duplicate", labels);
  stats_.packets_parked = &registry_->counter("node.packets_parked", labels);
  stats_.nacks_sent = &registry_->counter("node.nacks_sent", labels);
  stats_.nacks_served = &registry_->counter("node.nacks_served", labels);
  stats_.drops_filtered = &registry_->counter("node.drops_filtered", labels);
  stats_.drops_unparseable =
      &registry_->counter("node.drops_unparseable", labels);
  stats_.oversize_detours =
      &registry_->counter("node.oversize_detours", labels);
  registry_->name_span_site(obs::span_site_node(id_),
                            "node " + std::to_string(id_) + " pos" +
                                std::to_string(position_));
  registry_->gauge_fn("node.parked", labels, [this] {
    return static_cast<double>(parked_count());
  });
  registry_->gauge_fn("node.mbox_packets", labels, [this] {
    return static_cast<double>(meter_.packets());
  });
  // Each store's history reports its size and its capacity evictions,
  // labelled by the middlebox whose logs it holds.
  const auto store_labels = [&labels](MboxId m) {
    obs::Labels out = labels;
    out.emplace_back("mbox", std::to_string(m));
    return out;
  };
  const auto evicted = [&](MboxId m) {
    return &registry_->counter("state.history_evicted", store_labels(m));
  };
  if (position_ < num_mboxes_ && params.mbox_factory) {
    mbox_ = params.mbox_factory();
    head_ = std::make_unique<HeadStore>(position_, cfg_, evicted(position_));
    registry_->gauge_fn("state.history_logs", store_labels(position_),
                        [h = head_.get()] {
                          return static_cast<double>(h->history().size());
                        });
  }
  // Appliers for the f preceding ring positions that carry middleboxes,
  // sharing one partition ownership map and handoff mesh. The map spans
  // every worker; the mesh has one producer row per data worker (NACK
  // replay offers from worker 0's control step, as shard 0).
  const auto workers = static_cast<std::uint32_t>(cfg_.threads_per_node);
  for (std::uint32_t k = 1; k <= cfg_.f && k < ring_size_; ++k) {
    const std::uint32_t m = (position_ + ring_size_ - k) % ring_size_;
    if (m >= num_mboxes_) continue;
    if (shard_map_ == nullptr) {
      shard_map_ =
          std::make_unique<state::ShardMap>(cfg_.num_partitions, workers);
      handoff_mesh_ = std::make_unique<StateHandoffMesh>(
          workers, workers, cfg_.handoff_capacity);
    }
    appliers_.emplace(m, std::make_unique<InOrderApplier>(
                             m, cfg_, *shard_map_, *handoff_mesh_, evicted(m)));
  }
  // Hot-path caches (appliers_ is immutable from here on).
  for (const auto& [m, a] : appliers_) {
    applier_cache_.emplace_back(m, a.get());
    registry_->gauge_fn("state.history_logs", store_labels(m), [a = a.get()] {
      return static_cast<double>(a->history().size());
    });
  }
  tail_mbox_ = tail_of();
  tail_applier_ = tail_mbox_ != ring_size_ ? applier(tail_mbox_) : nullptr;
  burst_size_ = std::clamp<std::size_t>(cfg_.burst_size, 1, kMaxBurst);
  tx_held_ = std::make_unique<TxHeld[]>(cfg_.threads_per_node);

  // The head's transaction fast path engages only when exactly one thread
  // transacts (multi-threaded heads keep wound-wait 2PL — that IS their
  // concurrency control).
  if (head_ != nullptr && cfg_.threads_per_node == 1) {
    head_->enable_shard_affine();
  }
  const obs::Labels slabels{{"node", std::to_string(id_)},
                            {"pos", std::to_string(position_)}};
  registry_->gauge_fn("state.partition_keys_hw", slabels, [this] {
    std::uint64_t hw = head_ != nullptr ? head_->store().keys_high_water() : 0;
    for (const auto& [m, a] : applier_cache_) {
      hw = std::max(hw, a->store().keys_high_water());
    }
    return static_cast<double>(hw);
  });
  registry_->gauge_fn("state.handoff_depth_hw", slabels, [this] {
    return handoff_mesh_ != nullptr
               ? static_cast<double>(handoff_mesh_->depth_high_water())
               : 0.0;
  });
  registry_->gauge_fn("state.owner_miss", slabels, [this] {
    return head_ != nullptr
               ? static_cast<double>(head_->txn_ctx().owner_misses())
               : 0.0;
  });
}

FtcNode::~FtcNode() {
  stop();
  // The shared registry outlives this node: drop snapshot callbacks that
  // capture `this` before the members they read are destroyed.
  registry_->remove_matching("node", std::to_string(id_));
}

void FtcNode::attach_data_path(net::Port* in, net::Port* out,
                               Forwarder* fwd) {
  if (fwd != nullptr) {
    const obs::Labels labels{{"node", std::to_string(id_)},
                             {"pos", std::to_string(position_)}};
    registry_->histogram_fn("piggyback.bytes_per_packet", labels,
                            [this] { return pb_bytes_hist_.snapshot(); });
    registry_->histogram_fn("piggyback.logs_per_packet", labels,
                            [this] { return pb_logs_hist_.snapshot(); });
  }
  forwarder_ = fwd;
  out_link_.store(out, std::memory_order_release);
  in_link_.store(in, std::memory_order_release);
}

void FtcNode::set_ring_pred(net::NodeId pred) {
  const net::NodeId old = ring_pred_id_.exchange(pred);
  if (old == pred || old == 0) return;
  // Rerouted to a different predecessor: the per-store NACK gap gate
  // tracked requests to the OLD node. A stale timestamp here would
  // silently swallow the first NACK the replacement needs to serve.
  LockGuard lock(park_mutex_);
  last_nack_ns_.clear();
}

InOrderApplier* FtcNode::applier(MboxId mbox) noexcept {
  // At most f entries (usually one): a linear scan of a flat array beats
  // the std::map walk on the per-packet path.
  for (const auto& [m, a] : applier_cache_) {
    if (m == mbox) return a;
  }
  return nullptr;
}

std::uint32_t FtcNode::tail_of() const noexcept {
  if (cfg_.f == 0 || cfg_.f >= ring_size_) return ring_size_;
  const std::uint32_t m = (position_ + ring_size_ - cfg_.f) % ring_size_;
  return m < num_mboxes_ && m != position_ ? m : ring_size_;
}

void FtcNode::start() {
  // A restart binds the head's transaction fast path to the new worker
  // thread (the previous owner thread is gone).
  if (head_ != nullptr) head_->txn_ctx().reset_owner();
  for (std::size_t t = 0; t < cfg_.threads_per_node; ++t) {
    auto worker = std::make_unique<rt::Worker>();
    worker->start("ftc-node-" + std::to_string(position_) + "-t" +
                      std::to_string(t),
                  [this, t] {
                    rt::set_current_shard(static_cast<std::uint32_t>(t));
                    return worker_body(static_cast<std::uint32_t>(t));
                  });
    workers_.push_back(std::move(worker));
  }
}

void FtcNode::stop() {
  workers_.clear();
  // The joined workers' held packets go back to the pool.
  for (std::size_t w = 0; w < cfg_.threads_per_node; ++w) {
    TxHeld& held = tx_held_[w];
    for (std::size_t i = 0; i < held.n; ++i) pool_.free_raw(held.p[i]);
    held.n = 0;
  }
  tx_held_count_.store(0, std::memory_order_release);
}

void FtcNode::fail() {
  failed_.store(true, std::memory_order_release);
  span_event(registry_, obs::span_site_node(id_),
             obs::recovery_trace_id(position_), obs::SpanKind::kFail,
             position_);
  stop();
  // Crash-stop: parked packets are lost with the node (stop() returned
  // the held ones).
  LockGuard lock(park_mutex_);
  for (auto& parked : parked_) pool_.free_raw(parked.packet);
  parked_.clear();
  parked_size_.store(0, std::memory_order_release);
}

bool FtcNode::worker_body(std::uint32_t thread_id) {
  if (failed_.load(std::memory_order_acquire)) return false;
  // Until attach_data_path publishes the in-link (a replacement fetching
  // its state), worker 0 runs only the control step.
  net::Port* const in = in_link_.load(std::memory_order_acquire);
  bool idle = true;
  bool did_work = in != nullptr && pass(thread_id, *in, idle);
  // Worker 0 serves the control endpoint outside its passes, so a fetch's
  // quiesce_and waits only for the other workers. It looks at the inbox
  // after every empty poll, and a saturated worker still takes a step once
  // per control period: pongs, NACK replies and commit notices never wait
  // behind a backlog of data.
  if (thread_id == 0) {
    const std::uint64_t now = rt::now_ns();
    if (idle || now - last_control_ns_ >= kControlPeriodNs) {
      did_work = control_step(now) || did_work;
    }
  }
  return did_work;
}

bool FtcNode::control_step(std::uint64_t now) {
  bool handled = false;
  // The lock-free check keeps idle polls off the control plane's lock.
  if (inbox_.due(now)) {
    while (auto msg = ctrl_.poll(id_)) {
      dispatch_control(*msg);
      handled = true;
    }
  }
  if (now - last_control_ns_ >= kControlPeriodNs) {
    last_control_ns_ = now;
    check_parked_timeouts(now);
    send_commit_notice();
  }
  return handled;
}

bool FtcNode::pass(std::uint32_t thread_id, net::Port& in, bool& idle) {
  // One token per pass, raised FIRST, then the quiesce flag checked (both
  // seq_cst): Dekker with quiesce_and, so a worker never slips past a
  // quiesce that already saw no pass in flight (worker 0's control step
  // drains every single-consumer handoff ring under quiesce). Quiescence
  // checks (ChainRuntime::quiescent) read the same token: packets polled
  // off the link, and parked packets or handoff portions a drain took out,
  // sit in no queue until the pass ends.
  passes_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  if (quiesced_.load(std::memory_order_seq_cst)) {
    passes_in_flight_.fetch_sub(1, std::memory_order_release);
    return false;
  }
  BurstScope& b = t_burst;
  b.out = out_link_.load(std::memory_order_acquire);
  // Packets an earlier pass could not send leave before this pass polls:
  // a successor that still takes none holds the node's input back.
  if (TxHeld& held = tx_held_[thread_id]; held.n != 0) {
    const std::size_t sent = b.out->send_burst({held.p, held.n});
    std::copy(held.p + sent, held.p + held.n, held.p);
    held.n -= sent;
    tx_held_count_.fetch_sub(sent, std::memory_order_acq_rel);
    if (held.n != 0) {
      idle = true;
      if (sent != 0) bursts_done_.fetch_add(1);
      passes_in_flight_.fetch_sub(1, std::memory_order_release);
      return sent != 0;
    }
  }
  if (buffer_ != nullptr) {
    // The batch this pass's packets reach the egress buffer in: made on
    // the thread's first pass, and its storage kept.
    thread_local std::unique_ptr<EgressBuffer::Batch> t_egress;
    if (SFC_UNLIKELY(t_egress == nullptr)) {
      t_egress = std::make_unique<EgressBuffer::Batch>();
    }
    b.egress = t_egress.get();
  }

  pkt::Packet* rx[kMaxBurst];
  std::size_t got = 0;
  // Chain ingress: pending feedback records ride a propagating packet
  // (paper §5.1). It takes its feedback and the pipeline below like a
  // polled packet (this node's appliers are group members of the
  // wrap-around middleboxes too). Records a collect left behind lead the
  // burst; any others go as soon as a poll comes back empty, the chain's
  // idle moment, instead of waiting for the next data packet.
  const bool ingress = thread_id == 0 && forwarder_ != nullptr;
  const auto propagate = [&] {
    if (pkt::Packet* prop = Forwarder::make_propagating_packet(pool_)) {
      rx[got++] = prop;
    }
  };
  if (ingress && forwarder_->left_behind()) propagate();
  b.prof.open();
  if (got < burst_size_) got += in.poll_burst(rx + got, burst_size_ - got);
  idle = got == 0;
  if (got == 0 && ingress && forwarder_->propagation_due()) propagate();
  bool took = got != 0;
  bool did_work = took;
  if (got != 0) {
    b.prof.mark(obs::ProfStage::kPoll);
    // The burst's packets were last written on another core: start
    // every header line's fetch now, so the misses overlap instead of
    // queueing one behind the other in the loop below.
    for (std::size_t i = 0; i < got; ++i) __builtin_prefetch(rx[i]);
    // In-place processing (paper §5.1), the same at every hop: open
    // every tail once (the chain ingress first writes the feedback it
    // attaches), apply the whole burst's logs grouped per applier and
    // store partition, then run phases B-D on the wire bytes in place.
    // Reused across bursts: constructing kMaxBurst views per burst costs
    // more than the views' own work when bursts hold a packet or two.
    // Made on the thread's first burst rather than in static TLS, which
    // every thread start would zero (a view's offsets are sized for a
    // merged feedback hand-off, so the array is about 270 KB).
    thread_local std::unique_ptr<ViewWork[]> t_views;
    if (SFC_UNLIKELY(t_views == nullptr)) {
      t_views = std::make_unique<ViewWork[]>(kMaxBurst);
    }
    ViewWork* const vw = t_views.get();
    bool any_traced = false;
    // Frame and tail lines are fetched kPrefetchAhead packets before
    // their view opens; the header line they hang off is on its way.
    constexpr std::size_t kPrefetchAhead = 4;
    for (std::size_t i = 0; i < std::min(got, kPrefetchAhead); ++i) {
      prefetch_frame(*rx[i]);
    }
    // Head ingress: the channel is polled until it comes back empty in
    // this burst, and the piggyback distributions record runs of equal
    // per-packet values, so both cost once per burst, not per packet.
    // The distributions count data packets only.
    bool feedback_dry = false;
    Attached run;
    std::uint64_t run_len = 0;
    const auto record_run = [&] {
      pb_bytes_hist_.record_n(run.bytes, run_len);
      pb_logs_hist_.record_n(run.logs, run_len);
    };
    for (std::size_t i = 0; i < got; ++i) {
      if (i + kPrefetchAhead < got) prefetch_frame(*rx[i + kPrefetchAhead]);
      if (SFC_UNLIKELY(rx[i]->anno().trace_id != 0)) {
        any_traced = true;
        span_event(registry_, obs::span_site_node(id_),
                   rx[i]->anno().trace_id, obs::SpanKind::kNodeIngress,
                   position_);
      }
      if (forwarder_ != nullptr) {
        const Attached a = attach_feedback(rx[i], feedback_dry);
        if (!rx[i]->anno().is_control) {
          if (run_len != 0 && a != run) {
            record_run();
            run_len = 0;
          }
          run = a;
          ++run_len;
        }
      }
      vw[i].view = PiggybackView::open(*rx[i]);
      vw[i].held_at = kNoHeldLog;
    }
    if (run_len != 0) record_run();
    b.prof.mark(obs::ProfStage::kViewWalk);
    const std::uint64_t span_t0 = any_traced ? rt::now_ns() : 0;
    apply_logs_burst(vw, got);
    b.prof.mark(obs::ProfStage::kLogApply);
    // Traced packets report the burst apply as a per-packet share.
    const std::uint64_t apply_share_ns =
        any_traced ? (rt::now_ns() - span_t0) / got : 0;
    for (std::size_t i = 0; i < got; ++i) {
      if (SFC_UNLIKELY(rx[i]->anno().trace_id != 0) &&
          vw[i].held_at == kNoHeldLog) {
        span_event(registry_, obs::span_site_node(id_),
                   rx[i]->anno().trace_id, obs::SpanKind::kApply,
                   apply_share_ns);
      }
      process_view(rx[i], vw[i], thread_id);
    }
    // Once per burst, and only with something parked: this burst's logs
    // may have filled a parked packet's gap (or a packet parked above
    // just missed its log).
    if (parked_size_.load(std::memory_order_acquire) != 0) drain_parked();
    b.prof.mark(obs::ProfStage::kParkDrain);
    // Burst boundary: apply cross-shard portions other workers (or worker
    // 0's NACK replay) queued for this worker's partitions. Timed as its
    // own primary stage inside the burst window.
    if (handoff_mesh_ != nullptr) {
      drain_handoff(thread_id);
      b.prof.mark(obs::ProfStage::kHandoffDrain);
    }
    // The whole burst tail — egress flush and meter/counter flush —
    // bills to kEgressFlush: it opens at the chained mark (the last
    // per-packet mark) and its closing mark ends the burst wall, so no
    // per-burst glue goes missing.
    ship_pass(thread_id);
    b.prof.mark(obs::ProfStage::kEgressFlush);
  }
  b.prof.finish(got);

  // Idle duties in shard mode: portions queued for this shard by other
  // workers or by a NACK replay must not wait for the next ingress burst,
  // and parked packets a replay unblocked are drained here, inside a pass
  // (the control step runs outside one).
  if (got == 0 && handoff_mesh_ != nullptr) {
    took = handoff_mesh_->pending(thread_id);
    if (drain_handoff(thread_id) != 0) did_work = true;
    if (parked_size_.load(std::memory_order_acquire) != 0) {
      took = true;
      // Only packets that went on count as work: one still waiting on a
      // NACK keeps the worker backing off.
      if (drain_parked()) did_work = true;
      ship_pass(thread_id);
    }
  }

  // Work the pass took shows as a finished pass before the token drops, so
  // a quiescence check that reads bursts_done() before and after sees it.
  if (took) bursts_done_.fetch_add(1);
  passes_in_flight_.fetch_sub(1, std::memory_order_release);
  return did_work;
}

std::size_t FtcNode::drain_handoff(std::uint32_t thread_id) {
  auto& deferred = handoff_deferred_[thread_id];
  const std::size_t was_deferred = deferred.size();
  handoff_mesh_->drain(thread_id, [&deferred](StateHandoff& h) {
    deferred.push_back(std::move(h));
  });
  if (deferred.empty()) return 0;
  // Resolve until a full pass makes no progress: an entry future in one
  // pass becomes applicable once a lower-seq entry from another producer's
  // ring applies. Entries still future after that are waiting on a portion
  // not yet in any of this owner's rings (producer mid-push, or a genuine
  // gap pending NACK recovery) — they stay deferred for the next drain.
  std::size_t resolved = 0;
  bool progress = true;
  while (progress && !deferred.empty()) {
    progress = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < deferred.size(); ++i) {
      if (deferred[i].applier->apply_handoff(deferred[i])) {
        ++resolved;
        progress = true;
      } else {
        if (kept != i) deferred[kept] = std::move(deferred[i]);
        ++kept;
      }
    }
    deferred.resize(kept);
  }
  const std::size_t now_deferred = deferred.size();
  if (now_deferred != was_deferred) {
    if (now_deferred > was_deferred) {
      handoff_deferred_count_.fetch_add(now_deferred - was_deferred,
                                        std::memory_order_acq_rel);
    } else {
      handoff_deferred_count_.fetch_sub(was_deferred - now_deferred,
                                        std::memory_order_acq_rel);
    }
  }
  return resolved;
}

FtcNode::Attached FtcNode::attach_feedback(pkt::Packet* p, bool& dry) {
  const std::size_t overhead = kWireHeaderSize + kFooterSize;
  if (dry) {
    append_wire_logs(*p, {}, 0, cfg_.num_partitions);
    return Attached{overhead, 0};
  }
  // Only records this frame's tailroom holds ride along; the rest stay
  // pending and lead the next burst on a propagating packet.
  const std::size_t room = p->tailroom() > overhead ? p->tailroom() - overhead : 0;
  FeedbackLogs fb = forwarder_->collect(room);
  dry = fb.empty();
  append_wire_logs(*p, fb.bytes, fb.count(), cfg_.num_partitions);
  // Head-ingress distributions (the paper's state-size axis): what the
  // attached message occupies on the wire, and how many logs ride along.
  const Attached attached{overhead + fb.bytes.size(), fb.count()};
  // The records now ride the packet: the storage carries the next hand-off.
  forwarder_->recycle(std::move(fb));
  return attached;
}

bool FtcNode::reoffer_held(ViewWork& w) {
  const std::size_t count = w.view.log_count();
  for (std::size_t j = w.held_at; j < count; ++j) {
    const WireLog log = w.view.log(j);
    InOrderApplier* a = applier(log.mbox);
    if (a == nullptr) continue;  // Relay-only for this store.
    switch (a->offer(log)) {
      case InOrderApplier::Offer::kApplied:
        stats_.logs_applied->inc();
        break;
      case InOrderApplier::Offer::kDuplicate:
        stats_.logs_duplicate->inc();
        break;
      case InOrderApplier::Offer::kHeld:
        w.held_at = static_cast<std::uint32_t>(j);
        return false;
    }
  }
  w.held_at = kNoHeldLog;
  return true;
}

void FtcNode::apply_logs_burst(ViewWork* vw, std::size_t n) {
  if (applier_cache_.empty()) return;
  std::uint64_t applied = 0;
  std::uint64_t duplicate = 0;
  // Each packet's logs in rx order, straight to their applier: per-applier
  // order is the burst's arrival order.
  for (std::uint32_t i = 0; i < n; ++i) {
    const PiggybackView& v = vw[i].view;
    if (!v.ok()) continue;
    const std::size_t count = v.log_count();
    for (std::uint32_t j = 0; j < count; ++j) {
      const WireLog log = v.log(j);
      InOrderApplier* a = applier(log.mbox);
      if (a == nullptr) continue;  // Relay-only for this store.
      auto offer = a->offer(log);
      if (offer == InOrderApplier::Offer::kHeld && cfg_.threads_per_node > 1) {
        // With sibling threads the missing predecessor is usually in
        // flight right now: a couple of yields beat the full park/drain
        // round trip.
        for (int spin = 0; spin < 4 && offer == InOrderApplier::Offer::kHeld;
             ++spin) {
          std::this_thread::yield();
          offer = a->offer(log);
        }
      }
      switch (offer) {
        case InOrderApplier::Offer::kApplied:
          ++applied;
          break;
        case InOrderApplier::Offer::kDuplicate:
          ++duplicate;
          break;
        case InOrderApplier::Offer::kHeld:
          // Remember the earliest held log (in message order): the packet
          // parks and resumes from there; logs already applied re-offer
          // as duplicates.
          vw[i].held_at = std::min(vw[i].held_at, j);
          break;
      }
    }
  }
  if (applied != 0) stats_.logs_applied->add(applied);
  if (duplicate != 0) stats_.logs_duplicate->add(duplicate);
}

void FtcNode::process_view(pkt::Packet* p, ViewWork& vw,
                           std::uint32_t thread_id) {
  if (SFC_UNLIKELY(vw.held_at != kNoHeldLog)) {
    // A predecessor log is missing: park until it lands.
    park(p, std::move(vw), thread_id);
    return;
  }
  BurstScope& b = t_burst;
  const std::uint64_t trace_id = p->anno().trace_id;
  PiggybackView& v = vw.view;
  // Budget stage marks chain through b.prof: each mark closes one stage
  // and opens the next — across function boundaries — so dispatch glue
  // (parse, span/meter bookkeeping, call/return overhead) lands in an
  // adjacent stage instead of silently eroding reconciliation.

  // --- Phase B: tail duty, in place. The tail strips its middlebox's
  // logs. Only a wrap-around tail (its middlebox sits later in the chain)
  // attaches its commit: the egress buffer, the one reader of commits on
  // packets, holds packets on wrap-around logs only. ---
  if (InOrderApplier* a = tail_applier_) {
    if (v.ok() && v.log_count() != 0) {
      v.strip_logs_of(tail_mbox_);
      if (trace_id != 0) {
        span_event(registry_, obs::span_site_node(id_), trace_id,
                   obs::SpanKind::kStrip, tail_mbox_);
      }
    }
    // Attach the commit vector only when it advanced: re-announcing an
    // unchanged MAX carries no information and costs 100+ bytes per
    // packet on read-heavy workloads.
    const std::uint64_t applied = a->applied_count();
    if (tail_mbox_ > position_ &&
        applied != last_commit_attach_.load(std::memory_order_relaxed)) {
      const MaxVector max = a->max();
      if (!v.ok()) v = PiggybackView::create(*p, cfg_.num_partitions);
      if (!v.ok() || !v.set_commit(tail_mbox_, max)) {
        // Tailroom exhausted: the message and the commit go on ahead.
        stats_.oversize_detours->inc();
        detour(*p, v, [&](PiggybackView& t) { return t.set_commit(tail_mbox_, max); });
      }
      last_commit_attach_.store(applied, std::memory_order_relaxed);
      if (trace_id != 0) {
        span_event(registry_, obs::span_site_node(id_), trace_id,
                   obs::SpanKind::kCommitAttach, tail_mbox_);
      }
    }
  }
  b.prof.mark(obs::ProfStage::kTailCommit);

  // --- Phase C: the packet transaction (paper §4.2). The tail stays on
  // the packet; parse_packet is told where the wire bytes end. ---
  mbox::Verdict verdict = mbox::Verdict::kForward;
  // Our own log, encoded once: the history holds a copy, and the same
  // bytes go onto the packet (or a propagating packet). Empty: no log.
  LogRecordBuffer log_buf;
  std::span<const std::uint8_t> new_log;
  if (mbox_ != nullptr && !p->anno().is_control) {
    auto parsed = pkt::parse_packet(*p, v.ok() ? v.wire_size() : 0);
    if (!parsed) {
      stats_.drops_unparseable->inc();
      verdict = mbox::Verdict::kDrop;
    } else {
      const std::uint64_t span_t0 = trace_id != 0 ? rt::now_ns() : 0;
      mbox::ProcessContext pctx;
      pctx.thread_id = thread_id;
      pctx.num_threads = static_cast<std::uint32_t>(cfg_.threads_per_node);
      if (mbox_->stateless()) {
        verdict = mbox_->process_stateless(*p, *parsed, pctx);
      } else {
        const auto record =
            state::run_transaction(head_->txn_ctx(), [&](state::Txn& txn) {
              pctx.deferred_rewrite.reset();
              verdict = mbox_->process(txn, *p, *parsed, pctx);
            });
        new_log = head_->record_log(record, log_buf);
      }
      if (pctx.deferred_rewrite) pkt::rewrite_flow(*parsed, *pctx.deferred_rewrite);
      // Chained from the Phase B mark: parse + dispatch glue count as
      // processing cost, not unattributed time.
      b.prof.mark(obs::ProfStage::kProcess);
      if (trace_id != 0) {
        span_event(registry_, obs::span_site_node(id_), trace_id,
                   obs::SpanKind::kProcess, rt::now_ns() - span_t0);
      }
    }
  }

  // Meter wire bytes only: packets are measured without their tail.
  // Accumulated; ship_pass() makes one meter/counter add per pass.
  if (p->anno().is_control) {
    ++b.control_packets;
  } else {
    ++b.data_packets;
    b.data_bytes += v.ok() ? v.wire_size() : p->size();
  }

  // --- Phase D: emit, appending our own log in place. ---
  const bool have_log = !new_log.empty();
  const auto append_new_log = [&](PiggybackView& t) {
    return !have_log || t.append_wire_log(new_log);
  };
  if (verdict == mbox::Verdict::kDrop) {
    // A filtering middlebox must not swallow in-flight state: its head
    // emits a propagating packet carrying the message (paper §5.1).
    stats_.drops_filtered->inc();
    if (have_log || (v.ok() && (v.log_count() != 0 || v.commit_count() != 0))) {
      detour(*p, v, append_new_log);
    }
    pool_.free_raw(p);
    return;
  }
  if (have_log) {
    if (!v.ok()) v = PiggybackView::create(*p, cfg_.num_partitions);
    if (!v.ok() || !v.append_wire_log(new_log)) {
      // The log outgrew this packet's tailroom (paper: use jumbo frames).
      // The message and the log go on ahead; the data packet leaves with
      // an empty message (which always fits).
      stats_.oversize_detours->inc();
      detour(*p, v, append_new_log);
    }
  }
  if (trace_id != 0) {
    span_event(registry_, obs::span_site_node(id_), trace_id,
               obs::SpanKind::kNodeEgress);
  }
  emit(p, v);
  b.prof.mark(obs::ProfStage::kAppend);
}

template <typename Fn>
void FtcNode::detour(pkt::Packet& p, PiggybackView& v, Fn&& finish) {
  pkt::Packet* prop = nullptr;
  PiggybackView pv;
  // Runs @p put on the current propagating packet; when it does not fit,
  // emits that packet and retries on a fresh one.
  const auto place = [&](auto&& put) {
    if (prop != nullptr && put(pv)) return;
    if (prop != nullptr) emit(prop, pv);
    prop = Forwarder::make_propagating_packet(pool_);
    // Pool exhausted: NACK recovery refills what is lost here.
    if (prop == nullptr) return;
    pv = PiggybackView::create(*prop, cfg_.num_partitions);
    // A record no propagating packet can hold has nowhere to go.
    (void)put(pv);
  };
  if (v.ok()) {
    for (std::size_t i = 0; i < v.commit_count(); ++i) {
      MaxVector max;
      const MboxId mbox = v.commit(i, max);
      place([&](PiggybackView& t) { return t.set_commit(mbox, max); });
    }
    for (std::size_t i = 0; i < v.log_count(); ++i) {
      const auto record = v.log_bytes(i);
      place([&](PiggybackView& t) { return t.append_wire_log(record); });
    }
  }
  place(finish);
  if (prop != nullptr) emit(prop, pv);
  if (v.ok()) v.strip_tail();
  v = PiggybackView::create(p, cfg_.num_partitions);
}

void FtcNode::emit(pkt::Packet* p, PiggybackView& v) {
  if (buffer_ != nullptr) {
    buffer_->submit_wire(*t_burst.egress, p, v);
  } else {
    // The tail already rides the packet: no append, just stage.
    forward(p);
  }
}

void FtcNode::forward(pkt::Packet* p) {
  BurstScope& b = t_burst;
  if (b.out == nullptr) {
    pool_.free_raw(p);
    return;
  }
  // Staged in emit order (detoured propagating packets included); the
  // pass ships them with one send_burst.
  if (b.n_tx == kMaxBurst) flush_tx(nullptr);
  b.tx[b.n_tx++] = p;
}

void FtcNode::flush_tx(TxHeld* hold) {
  // One bulk send; stragglers wait with backpressure accounting, exactly
  // like a per-packet send would.
  BurstScope& b = t_burst;
  if (b.n_tx == 0) return;
  std::size_t sent = b.out->send_burst({b.tx, b.n_tx});
  if (sent < b.n_tx) {
    // Backpressure waits stay out of the burst's cost sample: a full
    // downstream queue is the next stage's problem, not this stage's work.
    const std::uint64_t w0 = b.prof.stamp();
    if (hold == nullptr) {
      for (std::size_t i = sent; i < b.n_tx; ++i) {
        if (!b.out->send_blocking(b.tx[i])) pool_.free_raw(b.tx[i]);
      }
    } else {
      const std::uint64_t give_up = rt::now_ns() + kTxWaitNs;
      for (std::uint64_t now = rt::now_ns();
           sent < b.n_tx && now < give_up &&
           b.out->send_blocking(b.tx[sent], give_up - now);
           now = rt::now_ns()) {
        ++sent;
      }
      std::copy(b.tx + sent, b.tx + b.n_tx, hold->p);
      hold->n = b.n_tx - sent;
      tx_held_count_.fetch_add(hold->n, std::memory_order_acq_rel);
    }
    b.prof.blocked(w0);
  }
  b.n_tx = 0;
}

void FtcNode::ship_pass(std::uint32_t thread_id) {
  BurstScope& b = t_burst;
  flush_tx(&tx_held_[thread_id]);
  if (buffer_ != nullptr) buffer_->end_burst(*b.egress);
  // One meter/counter update per pass instead of per packet.
  if (b.data_packets != 0) {
    meter_.add(b.data_packets, b.data_bytes);
    stats_.packets_processed->add(b.data_packets);
    b.data_packets = 0;
    b.data_bytes = 0;
  }
  if (b.control_packets != 0) {
    stats_.control_packets->add(b.control_packets);
    b.control_packets = 0;
  }
}

void FtcNode::park(pkt::Packet* p, ViewWork&& vw, std::uint32_t thread_id) {
  const MboxId blocked_on = vw.view.log(vw.held_at).mbox;
  if (p->anno().trace_id != 0) {
    span_event(registry_, obs::span_site_node(id_), p->anno().trace_id,
               obs::SpanKind::kPark, blocked_on);
  }
  {
    LockGuard lock(park_mutex_);
    parked_.push_back(Parked{p, std::move(vw), thread_id, rt::now_ns()});
    parked_size_.store(parked_.size(), std::memory_order_release);
  }
  stats_.packets_parked->inc();
}

bool FtcNode::drain_parked() {
  // Packets taken off parked_ sit in no queue until re-parked or sent on:
  // the caller's pass token keeps quiescence checks seeing them.
  bool went_on = false;
  for (;;) {
    std::vector<Parked> candidates;
    {
      LockGuard lock(park_mutex_);
      if (parked_.empty()) break;
      candidates.swap(parked_);
      parked_size_.store(0, std::memory_order_release);
    }
    bool progress = false;
    std::vector<Parked> still_blocked;
    for (auto& parked : candidates) {
      const std::uint32_t before = parked.work.held_at;
      const std::uint64_t t0 = rt::now_ns();
      if (reoffer_held(parked.work)) {
        const std::uint64_t trace_id = parked.packet->anno().trace_id;
        if (trace_id != 0) {
          const std::uint64_t now = rt::now_ns();
          span_event(registry_, obs::span_site_node(id_), trace_id,
                     obs::SpanKind::kApply, now - t0);
          span_event(registry_, obs::span_site_node(id_), trace_id,
                     obs::SpanKind::kUnpark, now - parked.parked_at_ns);
        }
        process_view(parked.packet, parked.work, parked.thread_id);
        progress = true;
        went_on = true;
      } else {
        progress = progress || parked.work.held_at != before;
        still_blocked.push_back(std::move(parked));
      }
    }
    if (!still_blocked.empty()) {
      LockGuard lock(park_mutex_);
      for (auto& parked : still_blocked) parked_.push_back(std::move(parked));
      parked_size_.store(parked_.size(), std::memory_order_release);
    }
    if (!progress) break;
  }
  return went_on;
}

void FtcNode::check_parked_timeouts(std::uint64_t now) {
  // Adaptive parked-work timeout: when the ingress transport measures an
  // RTO, track it (a NACK round trip rides the same path as the data), but
  // clamp between the configured floor and the fixed legacy timeout as
  // ceiling. Raw links expose no estimate and keep the fixed value.
  std::uint64_t park_timeout = cfg_.retransmit_timeout_ns;
  if (net::Port* in = in_link_.load(std::memory_order_acquire)) {
    if (const std::uint64_t rto = in->rto_ns(); rto != 0) {
      park_timeout = std::clamp(rto, cfg_.retransmit_timeout_floor_ns,
                                cfg_.retransmit_timeout_ns);
    }
  }
  std::vector<MboxId> to_nack;
  {
    LockGuard lock(park_mutex_);
    for (const auto& parked : parked_) {
      if (now - parked.parked_at_ns < park_timeout) continue;
      const MboxId blocked_on = parked.work.view.log(parked.work.held_at).mbox;
      auto& last = last_nack_ns_[blocked_on];
      if (now - last < cfg_.nack_min_gap_ns) continue;
      last = now;
      to_nack.push_back(blocked_on);
    }
  }
  for (MboxId mbox : to_nack) {
    InOrderApplier* a = applier(mbox);
    if (a == nullptr) continue;
    net::Message req;
    req.type = kNack;
    req.from = id_;
    req.to = ring_pred_id_.load(std::memory_order_acquire);
    req.tag = (static_cast<std::uint64_t>(id_) << 32) | mbox;
    put_u32(req.payload, mbox);
    put_max(req.payload, a->max());
    ctrl_.send(std::move(req));
    stats_.nacks_sent->inc();
    span_event(registry_, obs::span_site_node(id_),
               obs::protocol_trace_id(position_), obs::SpanKind::kNackSent,
               mbox);
  }
}

void FtcNode::send_commit_notice() {
  InOrderApplier* a = tail_applier_;
  if (a == nullptr) return;
  const std::uint64_t applied = a->applied_count();
  if (applied == last_commit_notice_) return;
  // A replacement learns its predecessor when it is wired in; its notice
  // waits until then.
  const net::NodeId pred = ring_pred_id_.load(std::memory_order_acquire);
  if (pred == 0) return;
  last_commit_notice_ = applied;
  // Notices alone prune histories: the tail's here, the others' en route.
  const MaxVector max = a->max();
  a->prune(max);
  net::Message notice;
  notice.type = kCommitNotice;
  notice.from = id_;
  notice.to = pred;
  notice.payload = std::move(notice_payload_);
  notice.payload.clear();
  notice.payload.reserve(4 + sizeof(max.seq));
  put_u32(notice.payload, tail_mbox_);
  put_max(notice.payload, max);
  ctrl_.send(std::move(notice));
}

void FtcNode::dispatch_control(net::Message& msg) {
  switch (msg.type) {
    case kPing:
      reply_pong(msg);
      break;
    case kNack:
      handle_nack(msg);
      break;
    case kNackResp:
      handle_nack_resp(msg);
      break;
    case kFetchReq:
      handle_fetch(msg);
      break;
    case kInit:
      handle_init(msg);
      break;
    case kCommitNotice:
      handle_commit_notice(msg);
      break;
    default:
      break;
  }
}

void FtcNode::reply_pong(const net::Message& ping) {
  net::Message pong;
  pong.type = kPong;
  pong.from = id_;
  pong.to = ping.from;
  pong.tag = ping.tag;
  ctrl_.send(std::move(pong));
}

void FtcNode::handle_commit_notice(net::Message& notice) {
  std::span<const std::uint8_t> in(notice.payload);
  std::uint32_t mbox = 0;
  MaxVector commit;
  if (!take_u32(in, mbox) || !take_max(in, commit)) return;
  // Every wrap-around middlebox's notice passes the last position on its
  // way to the head; a tail's MAX certifies f+1 replication however it
  // travels, so a commit lost on the data path strands no held packet.
  if (buffer_ != nullptr) buffer_->learn(mbox, commit);
  // The tail's commit means f+1 copies exist, and every upstream member
  // applied these logs before the tail did: no NACK can ask for them.
  if (head_ != nullptr && mbox == position_) {
    head_->prune(commit);
    notice_payload_ = std::move(notice.payload);
    return;
  }
  InOrderApplier* a = applier(mbox);
  if (a == nullptr) return;
  a->prune(commit);
  notice.from = id_;
  notice.to = ring_pred_id_.load(std::memory_order_acquire);
  ctrl_.send(std::move(notice));
}

void FtcNode::handle_init(const net::Message& req) {
  // Orchestrator-initiated recovery (paper §5.2). Payload: list of
  // (mbox id, source node id). Worker 0's control step is the only
  // consumer of this node's inbox, so recover_from() can poll for
  // responses inline (the node is not on the data path yet).
  std::span<const std::uint8_t> in(req.payload);
  std::uint32_t count = 0;
  if (!take_u32(in, count)) return;
  std::vector<std::pair<MboxId, net::NodeId>> sources;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t mbox = 0, node = 0;
    if (!take_u32(in, mbox) || !take_u32(in, node)) return;
    sources.emplace_back(mbox, node);
  }
  // Acknowledge initialization before fetching so the orchestrator can
  // separate initialization delay from state recovery delay (Figure 13).
  net::Message ack;
  ack.type = kInitAck;
  ack.from = id_;
  ack.to = req.from;
  ack.tag = req.tag;
  ctrl_.send(std::move(ack));
  span_event(registry_, obs::span_site_node(id_),
             obs::protocol_trace_id(position_), obs::SpanKind::kRecoveryInit,
             sources.size());

  const std::uint64_t fetch_start = rt::now_ns();
  const bool ok = recover_from(sources);
  const std::uint64_t fetch_ns = rt::now_ns() - fetch_start;
  span_event(registry_, obs::span_site_node(id_),
             obs::protocol_trace_id(position_), obs::SpanKind::kRecovered,
             ok ? 1 : 0);
  registry_->timer("node.recovery_fetch_ns").record(fetch_ns);

  net::Message done;
  done.type = kRecovered;
  done.from = id_;
  done.to = req.from;
  done.tag = req.tag;
  done.payload.push_back(ok ? 1 : 0);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&fetch_ns);
  done.payload.insert(done.payload.end(), p, p + 8);
  ctrl_.send(std::move(done));
}

void FtcNode::handle_nack(const net::Message& req) {
  std::span<const std::uint8_t> in(req.payload);
  std::uint32_t mbox = 0;
  MaxVector from;
  if (!take_u32(in, mbox) || !take_max(in, from)) return;

  net::Message resp;
  resp.type = kNackResp;
  resp.from = id_;
  resp.to = req.from;
  resp.tag = req.tag;
  put_u32(resp.payload, mbox);
  // The missing logs' wire records, back to back.
  if (head_ != nullptr && mbox == position_) {
    head_->history().append_after(from, resp.payload);
  } else if (InOrderApplier* a = applier(mbox)) {
    a->history().append_after(from, resp.payload);
  }
  ctrl_.send(std::move(resp));
  stats_.nacks_served->inc();
  span_event(registry_, obs::span_site_node(id_),
             obs::protocol_trace_id(position_), obs::SpanKind::kNackServed,
             mbox);
}

void FtcNode::handle_nack_resp(const net::Message& resp) {
  std::span<const std::uint8_t> in(resp.payload);
  std::uint32_t mbox = 0;
  std::vector<WireLog> logs;
  // The reply comes from another node: every record is checked before
  // any applies.
  if (!take_u32(in, mbox) || !open_wire_records(in, logs)) return;
  InOrderApplier* a = applier(mbox);
  if (a == nullptr) return;
  std::uint64_t applied = 0;
  for (const WireLog& log : logs) {
    if (a->offer(log) == InOrderApplier::Offer::kApplied) ++applied;
  }
  stats_.logs_applied->add(applied);
  span_event(registry_, obs::span_site_node(id_),
             obs::protocol_trace_id(position_), obs::SpanKind::kNackApplied,
             mbox);
  // The replayed logs applied above (worker 0's own partitions) or went
  // into their owners' handoff rings. The packets they unblocked re-run in
  // a pass: the next idle pass drains them.
}

void FtcNode::quiesce_and(const std::function<void()>& fn) {
  // seq_cst store pairs with the worker's raise-then-check (Dekker): once
  // the spin below observes no pass in flight, every worker either saw the
  // flag before touching anything or has fully left its pass.
  quiesced_.store(true, std::memory_order_seq_cst);
  while (passes_in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  if (handoff_mesh_ != nullptr) {
    // Workers are parked: write exclusivity transfers to this thread.
    // Flush in-flight cross-shard portions so fn() (serialization) sees a
    // consistent cut.
    for (std::uint32_t w = 0; w < shard_map_->num_workers(); ++w) {
      drain_handoff(w);
    }
  }
  fn();
  quiesced_.store(false, std::memory_order_release);
}

void FtcNode::handle_fetch(const net::Message& req) {
  std::span<const std::uint8_t> in(req.payload);
  std::uint32_t mbox = 0;
  if (!take_u32(in, mbox)) return;

  net::Message resp;
  resp.type = kFetchResp;
  resp.from = id_;
  resp.to = req.from;
  resp.tag = req.tag;
  put_u32(resp.payload, mbox);
  const std::size_t ok_at = resp.payload.size();
  put_u32(resp.payload, 0);

  // Paper §5.2: the fetch source stops admitting packets so the transfer
  // is a consistent cut; we quiesce the data workers for the serialization,
  // which writes the blob straight into the reply.
  quiesce_and([&] {
    const std::uint64_t start = rt::now_ns();
    const std::uint64_t faults = thread_minor_faults();
    if (head_ != nullptr && mbox == position_) {
      head_->serialize(resp.payload);
    } else if (InOrderApplier* a = applier(mbox)) {
      a->serialize(resp.payload);
    } else {
      return;
    }
    registry_->timer("node.fetch_serialize_ns").record(rt::now_ns() - start);
    registry_->timer("node.fetch_serialize_faults")
        .record(thread_minor_faults() - faults);
    const std::uint32_t ok = 1;
    std::memcpy(resp.payload.data() + ok_at, &ok, 4);
  });
  ctrl_.send(std::move(resp));
}

bool FtcNode::recover_from(
    const std::vector<std::pair<MboxId, net::NodeId>>& sources,
    std::uint64_t timeout_ns) {
  // All fetch requests are issued up front and responses collected as they
  // arrive, so the per-group transfers overlap on the wire — the parallel
  // fetch the paper credits for the replication factor's negligible impact
  // on recovery time (§7.5).
  struct Fetch {
    MboxId mbox;
    net::NodeId source;
    bool done{false};
    bool ok{false};
  };
  std::vector<Fetch> fetches;
  for (const auto& [mbox, source] : sources) {
    fetches.push_back(Fetch{mbox, source, false, false});
    net::Message req;
    req.type = kFetchReq;
    req.from = id_;
    req.to = source;
    req.tag = (static_cast<std::uint64_t>(id_) << 32) | (mbox + 1);
    put_u32(req.payload, mbox);
    ctrl_.send(std::move(req));
    span_event(registry_, obs::span_site_node(id_),
               obs::recovery_trace_id(position_), obs::SpanKind::kFetchStart,
               mbox);
  }

  // Other messages keep arriving during the fetch: pings are answered at
  // once (a silent node looks dead to the heartbeat monitor), the rest are
  // handled once the fetched state is in place.
  std::vector<net::Message> deferred;
  const std::uint64_t deadline = rt::now_ns() + timeout_ns;
  std::size_t outstanding = fetches.size();
  while (outstanding > 0 && rt::now_ns() < deadline &&
         !rt::stop_requested()) {
    auto msg = ctrl_.poll(id_);
    if (!msg) {
      std::this_thread::yield();
      continue;
    }
    if (msg->type == kPing) {
      reply_pong(*msg);
      continue;
    }
    if (msg->type != kFetchResp) {
      deferred.push_back(std::move(*msg));
      continue;
    }
    std::span<const std::uint8_t> in(msg->payload);
    std::uint32_t mbox = 0, ok = 0;
    if (!take_u32(in, mbox) || !take_u32(in, ok)) continue;
    for (auto& f : fetches) {
      if (f.mbox != mbox || f.done) continue;
      f.done = true;
      --outstanding;
      if (ok == 0) break;
      const std::uint64_t start = rt::now_ns();
      const std::uint64_t faults = thread_minor_faults();
      if (head_ != nullptr && mbox == position_) {
        f.ok = head_->deserialize(in);
      } else if (InOrderApplier* a = applier(mbox)) {
        f.ok = a->deserialize(in);
      }
      registry_->timer("node.fetch_deserialize_ns")
          .record(rt::now_ns() - start);
      registry_->timer("node.fetch_deserialize_faults")
          .record(thread_minor_faults() - faults);
      span_event(registry_, obs::span_site_node(id_),
                 obs::recovery_trace_id(position_), obs::SpanKind::kFetchDone,
                 mbox);
      break;
    }
  }

  for (auto& msg : deferred) dispatch_control(msg);

  bool all_ok = outstanding == 0;
  for (const auto& f : fetches) all_ok = all_ok && f.ok;
  return all_ok;
}

NodeStats FtcNode::stats() const { return stats_.snapshot(); }

}  // namespace sfc::ftc
