#include "core/nf_node.hpp"

#include "core/piggyback.hpp"
#include "obs/prof.hpp"
#include "packet/packet_io.hpp"
#include "runtime/clock.hpp"

namespace sfc::ftc {
namespace {

inline void span_event(obs::Registry* reg, std::uint32_t site,
                       std::uint64_t trace_id, obs::SpanKind kind,
                       std::uint64_t a = 0) noexcept {
  if (auto* sink = reg->span_sink()) {
    sink->record(obs::SpanRecord{trace_id, rt::now_ns(), a, site, kind});
  }
}

}  // namespace

void NfNode::start() {
  // Rebind the shard-affine transaction fast path to the new worker thread.
  txn_ctx_.reset_owner();
  for (std::size_t t = 0; t < cfg_.threads_per_node; ++t) {
    auto worker = std::make_unique<rt::Worker>();
    worker->start(
        "nf-node-" + std::to_string(position_) + "-t" + std::to_string(t),
        [this, t] { return worker_body(static_cast<std::uint32_t>(t)); });
    workers_.push_back(std::move(worker));
  }
}

bool NfNode::worker_body(std::uint32_t thread_id) {
  net::Port* in = in_link_.load(std::memory_order_acquire);
  if (in == nullptr) return false;
  pkt::Packet* rx[kMaxBurst];
  // Budget stage marks (obs/prof): one branch each when disabled.
  obs::ProfBurst prof;
  prof.open();
  const std::size_t got = in->poll_burst(rx, burst_size_);
  if (got == 0) return false;
  prof.mark(obs::ProfStage::kPoll);

  // Forwarded packets are staged and flushed with one send_burst; meter
  // updates coalesce to one add per burst.
  pkt::Packet* tx[kMaxBurst];
  std::size_t n_tx = 0;
  std::uint64_t fwd_bytes = 0;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < got; ++i) {
    if (process_packet(rx[i], thread_id)) {
      fwd_bytes += rx[i]->size();
      tx[n_tx++] = rx[i];
    } else {
      ++dropped;
    }
  }
  if (dropped != 0) drops_.fetch_add(dropped, std::memory_order_relaxed);
  if (n_tx != 0) meter_.add(n_tx, fwd_bytes);
  prof.mark(obs::ProfStage::kProcess);
  net::Port* out = out_link_.load(std::memory_order_acquire);
  if (out != nullptr) {
    const std::size_t sent = out->send_burst({tx, n_tx});
    if (sent < n_tx) {
      const std::uint64_t w0 = prof.stamp();
      for (std::size_t i = sent; i < n_tx; ++i) {
        if (!out->send_blocking(tx[i])) pool_.free_raw(tx[i]);
      }
      prof.blocked(w0);
    }
  } else {
    for (std::size_t i = 0; i < n_tx; ++i) pool_.free_raw(tx[i]);
  }
  prof.mark(obs::ProfStage::kEgressFlush);
  prof.finish(got);
  return true;
}

bool NfNode::process_packet(pkt::Packet* p, std::uint32_t thread_id) {
  const bool traced = p->anno().trace_id != 0 && registry_ != nullptr;
  if (traced) {
    span_event(registry_, obs::span_site_node(position_), p->anno().trace_id,
               obs::SpanKind::kNodeIngress, position_);
  }

  mbox::Verdict verdict = mbox::Verdict::kForward;
  if (mbox_ != nullptr && !p->anno().is_control) {
    // Packets replayed from FTC captures may still carry a piggyback tail;
    // hide it from the middlebox exactly as the FTC data path does.
    auto parsed = pkt::parse_packet(*p, wire_size_hint(*p));
    if (!parsed) {
      verdict = mbox::Verdict::kDrop;
    } else {
      const std::uint64_t span_t0 = traced ? rt::now_ns() : 0;
      mbox::ProcessContext pctx;
      pctx.thread_id = thread_id;
      pctx.num_threads = static_cast<std::uint32_t>(cfg_.threads_per_node);
      if (mbox_->stateless()) {
        verdict = mbox_->process_stateless(*p, *parsed, pctx);
      } else {
        state::run_transaction(txn_ctx_, [&](state::Txn& txn) {
          pctx.deferred_rewrite.reset();
          verdict = mbox_->process(txn, *p, *parsed, pctx);
        });
      }
      if (pctx.deferred_rewrite) pkt::rewrite_flow(*parsed, *pctx.deferred_rewrite);
      if (traced) {
        span_event(registry_, obs::span_site_node(position_),
                   p->anno().trace_id, obs::SpanKind::kProcess,
                   rt::now_ns() - span_t0);
      }
    }
  }

  if (verdict == mbox::Verdict::kDrop) {
    pool_.free_raw(p);
    return false;
  }
  if (traced) {
    span_event(registry_, obs::span_site_node(position_), p->anno().trace_id,
               obs::SpanKind::kNodeEgress);
  }
  return true;
}

}  // namespace sfc::ftc
