#include "ftmb/ftmb.hpp"

#include "obs/prof.hpp"
#include "packet/packet_io.hpp"
#include "runtime/clock.hpp"

namespace sfc::ftmb {

namespace {

constexpr std::uint32_t kPalMarker = 0x50414C00;  // "PAL\0"

pkt::Packet* make_pal_packet(pkt::PacketPool& pool, std::uint64_t packet_id) {
  pkt::Packet* pal = pool.alloc_raw();
  if (pal == nullptr) return nullptr;
  pkt::FlowKey ctrl{0x7f000001, 0x7f000003, 9998, 9998,
                    pkt::Ipv4Header::kProtoUdp};
  pkt::PacketBuilder(*pal).udp(ctrl, 64);
  pal->anno().is_control = true;
  pal->anno().aux = kPalMarker;
  pal->anno().packet_id = packet_id;
  return pal;
}

/// Sends @p p, blocking while @p out is full; the retries bill to the
/// burst's kSendBlocked stage. Drops (frees) on a missing port or timeout.
void send_or_free(net::Port* out, pkt::Packet* p, pkt::PacketPool& pool,
                  obs::ProfBurst& prof) {
  if (out != nullptr && out->send(p)) return;
  const std::uint64_t w0 = prof.stamp();
  if (out == nullptr || !out->send_blocking(p)) pool.free_raw(p);
  prof.blocked(w0);
}

}  // namespace

void FtmbMaster::start() {
  next_snapshot_ns_.store(rt::now_ns() + cfg_.snapshot_interval_ns);
  for (std::size_t t = 0; t < cfg_.threads_per_node; ++t) {
    auto worker = std::make_unique<rt::Worker>();
    worker->start(
        "ftmb-master-" + std::to_string(position_) + "-t" + std::to_string(t),
        [this, t] { return worker_body(static_cast<std::uint32_t>(t)); });
    workers_.push_back(std::move(worker));
  }
}

void FtmbMaster::maybe_snapshot_stall() {
  if (!snapshots_) return;
  const std::uint64_t now = rt::now_ns();
  // Stop-the-world pause: one thread arms it; every thread honors it.
  std::uint64_t due = next_snapshot_ns_.load(std::memory_order_acquire);
  if (now >= due &&
      next_snapshot_ns_.compare_exchange_strong(due, now + cfg_.snapshot_interval_ns)) {
    pause_until_ns_.store(now + cfg_.snapshot_stall_ns, std::memory_order_release);
    stalls_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint64_t pause_until = pause_until_ns_.load(std::memory_order_acquire);
  if (pause_until > now) {
    rt::spin_until_ns(pause_until);
    stall_ns_total_.fetch_add(rt::now_ns() - now, std::memory_order_relaxed);
  }
}

bool FtmbMaster::worker_body(std::uint32_t thread_id) {
  maybe_snapshot_stall();

  net::Port* in = in_link_.load(std::memory_order_acquire);
  net::Port* out = out_link_.load(std::memory_order_acquire);
  if (in == nullptr || out == nullptr) return false;
  // Budget stage marks (obs/prof); the snapshot stall above stays outside
  // the burst.
  obs::ProfBurst prof;
  prof.open();
  pkt::Packet* p = in->poll();
  if (p == nullptr) return false;
  prof.mark(obs::ProfStage::kPoll);

  mbox::Verdict verdict = mbox::Verdict::kForward;
  std::uint32_t pal_count = 0;
  if (mbox_ != nullptr && !p->anno().is_control) {
    auto parsed = pkt::parse_packet(*p);
    if (!parsed) {
      verdict = mbox::Verdict::kDrop;
    } else {
      mbox::ProcessContext pctx;
      pctx.thread_id = thread_id;
      pctx.num_threads = static_cast<std::uint32_t>(cfg_.threads_per_node);
      if (mbox_->stateless()) {
        verdict = mbox_->process_stateless(*p, *parsed, pctx);
      } else {
        auto record = state::run_transaction(txn_ctx_, [&](state::Txn& txn) {
          pctx.deferred_rewrite.reset();
          verdict = mbox_->process(txn, *p, *parsed, pctx);
        });
        // One PAL per shared-state access (paper §7.1: "for every data
        // packet, a PAL is transmitted in a separate message").
        pal_count = record.accesses;
      }
      if (pctx.deferred_rewrite) pkt::rewrite_flow(*parsed, *pctx.deferred_rewrite);
    }
  }
  prof.mark(obs::ProfStage::kProcess);

  // Ship PALs ahead of the data packet on the same FIFO link so the OL has
  // them by the time the packet arrives.
  for (std::uint32_t i = 0; i < pal_count; ++i) {
    if (pkt::Packet* pal = make_pal_packet(pool_, p->anno().packet_id)) {
      send_or_free(out, pal, pool_, prof);
      pals_sent_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  prof.mark(obs::ProfStage::kAppend);

  if (verdict == mbox::Verdict::kDrop) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    pool_.free_raw(p);
  } else {
    p->anno().aux = pal_count;
    meter_.add(1, p->size());
    send_or_free(out, p, pool_, prof);
  }
  prof.mark(obs::ProfStage::kEgressFlush);
  prof.finish(1);
  return true;
}

void FtmbLogger::start() {
  for (std::size_t t = 0; t < cfg_.threads_per_node; ++t) {
    auto worker = std::make_unique<rt::Worker>();
    worker->start("ftmb-log-" + std::to_string(position_) + "-t" +
                      std::to_string(t),
                  [this] { return worker_body(); });
    workers_.push_back(std::move(worker));
  }
}

bool FtmbLogger::worker_body() {
  // Budget stage marks (obs/prof). One iteration is one burst of up to two
  // ops (an IL input and an OL event); the stage table divides by the data
  // packets logged, so PAL handling counts as per-data-packet cost.
  obs::ProfBurst prof;
  prof.open();
  std::uint64_t ops = 0;
  std::uint64_t logged = 0;

  // IL side: log the input (memcpy into the bounded replay ring), forward
  // to the master.
  if (net::Port* in = from_chain_.load(std::memory_order_acquire)) {
    if (pkt::Packet* p = in->poll()) {
      prof.mark(obs::ProfStage::kPoll);
      const std::size_t slot =
          input_log_pos_.fetch_add(1, std::memory_order_relaxed) %
          kInputLogSlots;
      p->clone_into(input_log_[slot]);
      inputs_logged_.fetch_add(1, std::memory_order_relaxed);
      prof.mark(obs::ProfStage::kProcess);
      send_or_free(to_master_.load(std::memory_order_acquire), p, pool_, prof);
      prof.mark(obs::ProfStage::kEgressFlush);
      ++ops;
      ++logged;
    }
  }

  // OL side: absorb PALs; release data packets downstream. PALs arrive
  // before their data packet on the FIFO master link (first-attempt
  // delivery, per the paper's prototype assumption), so no hold is needed;
  // the per-PAL receive work is the modeled cost.
  if (net::Port* from_m = from_master_.load(std::memory_order_acquire)) {
    if (pkt::Packet* p = from_m->poll()) {
      prof.mark(obs::ProfStage::kPoll);
      if (p->anno().is_control && p->anno().aux == kPalMarker) {
        pals_received_.fetch_add(1, std::memory_order_relaxed);
        pool_.free_raw(p);  // OL keeps only the last PAL (paper §7.1).
        prof.mark(obs::ProfStage::kProcess);
      } else {
        send_or_free(to_chain_.load(std::memory_order_acquire), p, pool_,
                     prof);
        prof.mark(obs::ProfStage::kEgressFlush);
      }
      ++ops;
    }
  }
  prof.finish(ops, logged);
  return ops != 0;
}

}  // namespace sfc::ftmb
