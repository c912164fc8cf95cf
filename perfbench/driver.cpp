// Repository benchmark driver: runs FTC chains through the public
// ChainRuntime API and prints one JSON result line.
//
//   ftc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The driver is the traffic generator and the measurement sink. It injects
// with pool().alloc_raw() + pkt::PacketBuilder + ingress().send_burst(),
// drains with egress().poll_burst(), and fails/recovers ring positions with
// fail_position() + orch::Orchestrator::recover(). Every input (flow
// 5-tuples, churn lifetimes, the link reorder stream, the span sample) is
// derived from --seed.
//
// --trace 0 reports the end-to-end metrics from an untraced run. --trace 1
// runs the workload twice, untraced then traced (half of --seconds each),
// and reports the per-layer metrics from the traced run: the chain's
// HotProfiler, 1-in-N span sampling, and the driver's own timing around
// every call it makes into a layer. See perfbench/NOTES.md.
#include <algorithm>
#include <array>
#include <cctype>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/chain.hpp"
#include "mbox/firewall.hpp"
#include "mbox/monitor.hpp"
#include "mbox/nat.hpp"
#include "obs/prof.hpp"
#include "obs/span.hpp"
#include "orch/orchestrator.hpp"
#include "packet/packet_io.hpp"
#include "runtime/clock.hpp"
#include "runtime/rng.hpp"

namespace {

using namespace sfc;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool nat;                   // Firewall->MazuNAT->SimpleNAT, else 3x Monitor.
  std::size_t window;         // Closed loop: packets outstanding (0 = open).
  double rate_pps;            // Open loop: fixed absolute offered rate.
  double reorder;             // Link reorder probability (no loss).
  std::size_t flows;          // Concurrent flows.
  std::uint64_t lifetime;     // Packets per flow before it is replaced
                              // (0 = long-lived).
  bool live_failover;         // Fail+recover while traffic flows.
};

constexpr Workload kWorkloads[] = {
    {"monitor-closed", false, 1024, 0.0, 0.0, 64, 0, false},
    {"monitor-reorder", false, 0, 50'000.0, 0.01, 64, 0, false},
    {"nat-failover", true, 0, 50'000.0, 0.0, 4096, 64, true},
};

constexpr std::uint32_t kFailPosition = 1;   // Middle of the 3-position ring.
constexpr int kSetupRepeats = 7;             // setup_s is their median.
constexpr int kFailovers = 15;               // recovery_ms is their median.
/// tput_mpps is the median delivered rate over sub-windows of this length,
/// so a transient stall of the host does not move it.
constexpr std::uint64_t kSubWindowNs = 250'000'000;
constexpr double kWarmupSeconds = 0.5;
constexpr std::uint64_t kDrainDeadlineNs = 5'000'000'000;
constexpr std::uint64_t kSpanSampleEvery = 64;
constexpr std::size_t kFrameLen = 64;
constexpr std::size_t kSendBurst = 32;       // The chain's default burst.
constexpr std::size_t kPollBurst = 256;
/// Outstanding-id ring. A packet still undelivered when its slot is reused
/// (kIdRing newer ids later) counts as not delivered by the deadline.
constexpr std::size_t kIdRing = 1u << 16;

struct Options {
  const Workload* workload{nullptr};
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Self-test hook: corrupts one expectation so its check must fire.
  std::string corrupt;
};

// ---------------------------------------------------------------------------
// Small statistics helpers

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median of a bucketed histogram, interpolated inside the bucket that
/// holds the middle rank (the raw bucket bound would repeat run to run).
double hist_median(const rt::Histogram& h) {
  if (h.count() == 0) return 0.0;
  double prev_value = static_cast<double>(h.min());
  double prev_frac = 0.0;
  for (const auto& [value, frac] : h.cdf()) {
    if (frac >= 0.5) {
      const double span = frac - prev_frac;
      const double t = span > 0 ? (0.5 - prev_frac) / span : 1.0;
      return prev_value + t * (static_cast<double>(value) - prev_value);
    }
    prev_value = static_cast<double>(value);
    prev_frac = frac;
  }
  return static_cast<double>(h.max());
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// ---------------------------------------------------------------------------
// Driver spans: timing around every call the driver makes into a layer.
// Off (one branch per call) in the untraced run.

enum class Call : std::size_t {
  kAlloc,      // packet: PacketPool::alloc_raw
  kBuild,      // packet: PacketBuilder::udp
  kFree,       // packet: PacketPool::free_raw
  kSend,       // net: ingress().send_burst
  kPoll,       // net: egress().poll_burst
  kCount,
};

class DriverSpans {
 public:
  explicit DriverSpans(bool on) : on_(on) {}

  template <class F>
  auto timed(Call c, F&& f) {
    if (!on_) return f();
    const std::uint64_t t0 = rt::now_ns();
    auto result = f();
    auto& s = stats_[static_cast<std::size_t>(c)];
    s.ns += rt::now_ns() - t0;
    ++s.calls;
    return result;
  }

  /// Mean ns per call.
  double mean_ns(Call c) const {
    const auto& s = stats_[static_cast<std::size_t>(c)];
    return s.calls != 0 ? static_cast<double>(s.ns) / static_cast<double>(s.calls)
                        : 0.0;
  }

 private:
  struct Stat {
    std::uint64_t calls{0};
    std::uint64_t ns{0};
  };
  bool on_;
  std::array<Stat, static_cast<std::size_t>(Call::kCount)> stats_{};
};

// ---------------------------------------------------------------------------
// Flows

pkt::FlowKey flow_key(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t h = rt::splitmix64(seed * 0x9e3779b97f4a7c15ull ^ index);
  const std::uint64_t g = rt::splitmix64(h);
  pkt::FlowKey f;
  f.src_ip = 0x0a000000u | static_cast<std::uint32_t>(h & 0xffffff);  // 10/8
  f.dst_ip = 0x08000000u | static_cast<std::uint32_t>((h >> 24) & 0xffffff);
  f.src_port = static_cast<std::uint16_t>(1024 + (h >> 48) % 60000);
  f.dst_port = static_cast<std::uint16_t>(1 + g % 1023);
  f.protocol = 17;  // UDP
  return f;
}

/// Round-robin over a table of active flows; with a lifetime, an exhausted
/// slot is reborn as a never-seen flow.
class FlowTable {
 public:
  FlowTable(const Workload& w, std::uint64_t seed) : seed_(seed), w_(w) {
    rt::Pcg32 rng(seed, 0x666c6f77);
    slots_.resize(w.flows);
    for (auto& s : slots_) {
      s.index = next_index_++;
      // Staggered first lifetimes so slots do not all expire together.
      s.remaining = w.lifetime != 0 ? 1 + rng.next() % w.lifetime : 0;
    }
  }

  /// Returns the flow index for the next packet.
  std::uint64_t next() {
    Slot& s = slots_[cursor_];
    cursor_ = (cursor_ + 1) % slots_.size();
    if (w_.lifetime != 0) {
      if (s.remaining == 0) {
        s.index = next_index_++;
        s.remaining = w_.lifetime;
      }
      --s.remaining;
    }
    return s.index;
  }

  pkt::FlowKey key(std::uint64_t index) const { return flow_key(seed_, index); }

 private:
  struct Slot {
    std::uint64_t index{0};
    std::uint64_t remaining{0};
  };
  std::uint64_t seed_;
  const Workload& w_;
  std::vector<Slot> slots_;
  std::size_t cursor_{0};
  std::uint64_t next_index_{0};
};

// ---------------------------------------------------------------------------
// Chain setup

ftc::ChainRuntime::Spec chain_spec(const Workload& w, std::uint64_t seed,
                                   bool traced) {
  ftc::ChainRuntime::Spec spec;
  spec.mode = ftc::ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.threads_per_node = 1;
  spec.cfg.link.reorder = w.reorder;
  spec.cfg.link.seed = seed;
  spec.cfg.profile = traced;
  if (w.nat) {
    spec.mbox_factories = {
        []() -> std::unique_ptr<mbox::Middlebox> {
          // Rules that never match the generated 10/8 -> 8/8 traffic: the
          // firewall does its lookups and forwards everything.
          return std::make_unique<mbox::Firewall>(
              std::vector<mbox::FirewallRule>{
                  {0xc0a80000, 0xffff0000, 0, 0, 22, 6, false},
                  {0, 0, 0x7f000000, 0xff000000, 0, 0, false}},
              true);
        },
        []() -> std::unique_ptr<mbox::Middlebox> {
          return std::make_unique<mbox::MazuNat>();
        },
        []() -> std::unique_ptr<mbox::Middlebox> {
          return std::make_unique<mbox::SimpleNat>();
        },
    };
  } else {
    for (int i = 0; i < 3; ++i) {
      spec.mbox_factories.push_back([]() -> std::unique_ptr<mbox::Middlebox> {
        return std::make_unique<mbox::Monitor>(1);
      });
    }
  }
  return spec;
}

struct Setup {
  std::unique_ptr<ftc::ChainRuntime> chain;
  std::unique_ptr<orch::Orchestrator> orch;
  double setup_s{0};
  double construct_ms{0};
  double start_ms{0};
};

/// Builds and starts the chain kSetupRepeats times (keeping the last) and
/// reports median times. Setup = chain construction + start() +
/// orchestrator construction.
Setup build_chain(const Workload& w, std::uint64_t seed, bool traced) {
  std::vector<double> total, construct, start;
  Setup out;
  for (int i = 0; i < kSetupRepeats; ++i) {
    out.orch.reset();
    out.chain.reset();
    const std::uint64_t t0 = rt::now_ns();
    auto chain = std::make_unique<ftc::ChainRuntime>(chain_spec(w, seed, traced));
    const std::uint64_t t1 = rt::now_ns();
    chain->start();
    const std::uint64_t t2 = rt::now_ns();
    auto orch = std::make_unique<orch::Orchestrator>(*chain);
    const std::uint64_t t3 = rt::now_ns();
    total.push_back(static_cast<double>(t3 - t0) * 1e-9);
    construct.push_back(ns_to_ms(t1 - t0));
    start.push_back(ns_to_ms(t2 - t1));
    out.chain = std::move(chain);
    out.orch = std::move(orch);
  }
  out.setup_s = median(total);
  out.construct_ms = median(construct);
  out.start_ms = median(start);
  return out;
}

// ---------------------------------------------------------------------------
// One run of a workload

struct Failover {
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  double fail_ms{0};
  double recover_ms{0};
  double total_ms{0};
  double gap_ms{0};
  double entries{0};
  orch::RecoveryReport report;
};

struct RunResult {
  std::vector<std::string> errors;  // Failed correctness checks.
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
};

class Run {
 public:
  Run(const Workload& w, const Options& opt, double seconds, bool traced)
      : w_(w), opt_(opt), seconds_(seconds), traced_(traced), spans_(traced),
        flows_(w, opt.seed), sampler_(traced ? kSpanSampleEvery : 0, opt.seed),
        ids_(kIdRing) {}
  ~Run() {
    if (failover_thread_.joinable()) failover_thread_.join();
  }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  RunResult execute();

 private:
  enum class SlotState : std::uint8_t { kFree, kOutstanding, kDelivered };
  struct IdSlot {
    std::uint64_t id{0};
    std::uint64_t due_ns{0};
    std::uint64_t flow{0};
    SlotState state{SlotState::kFree};
  };

  void check(bool ok, const std::string& what) {
    if (!ok) result_.errors.push_back(what);
  }
  bool corrupt(const char* name) const { return opt_.corrupt == name; }

  /// Allocates, builds and sends up to @p n packets due at @p due[i].
  void inject(const std::uint64_t* due, std::size_t n);
  /// Polls egress once; returns the number of data packets delivered.
  std::size_t drain_egress();
  void deliver(pkt::Packet* p, std::uint64_t now);
  void retire_slot(IdSlot& s);

  void run_traffic();
  Failover fail_and_recover();
  void start_failover();
  void idle_failovers();
  void finish_checks();
  bool wait_quiescent(std::uint64_t deadline_ns);
  std::vector<std::uint64_t> monitor_counts();
  void collect_layers(const obs::BudgetReport& budget);

  const Workload& w_;
  const Options& opt_;
  const double seconds_;
  const bool traced_;
  DriverSpans spans_;
  FlowTable flows_;
  obs::SpanSampler sampler_;
  Setup setup_;
  std::unique_ptr<obs::SpanCollector> collector_;
  RunResult result_;

  std::vector<IdSlot> ids_;
  std::uint64_t next_id_{1};
  std::uint64_t injected_{0};     // Packets the ingress accepted.
  std::uint64_t delivered_{0};
  std::uint64_t pool_empty_{0};
  std::uint64_t refused_{0};
  std::uint64_t overdue_{0};      // Slot reused before delivery.
  std::uint64_t duplicates_{0};
  std::uint64_t unknown_{0};
  std::uint64_t outstanding_{0};
  std::uint64_t polls_nonempty_{0};
  std::uint64_t polled_packets_{0};

  // Measurement window.
  bool measuring_{false};
  std::uint64_t window_start_ns_{0};
  std::uint64_t window_end_ns_{0};
  std::vector<std::uint64_t> sub_delivered_;  // Per kSubWindowNs.
  // Latency of packets due in the window, per sub-window of their due time.
  std::vector<std::vector<std::uint32_t>> latency_ns_;
  std::vector<std::uint32_t> late_ns_;     // Send time - due time.

  // Egress delivery gaps, for the failover gap.
  std::uint64_t last_delivery_ns_{0};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> gaps_;  // [from, to]

  // NAT persistence: flow index -> first egress 5-tuple, when it was first
  // seen, and when a packet of the flow first left with another tuple.
  struct EgressFlow {
    pkt::FlowKey tuple;
    std::uint64_t first_ns{0};
    std::uint64_t changed_ns{0};
  };
  std::unordered_map<std::uint64_t, EgressFlow> egress_flows_;
  std::uint64_t unparsable_{0};
  std::uint64_t remapped_flows_{0};

  std::vector<Failover> failovers_;
  std::atomic<bool> failover_running_{false};
  std::thread failover_thread_;
  std::uint64_t last_send_ns_{0};
  double quiesce_ms_{0};  // Last send until the chain is quiescent.
};

void Run::retire_slot(IdSlot& s) {
  if (s.state == SlotState::kOutstanding) {
    ++overdue_;
    --outstanding_;
  }
  s.state = SlotState::kFree;
}

void Run::inject(const std::uint64_t* due, std::size_t n) {
  auto& chain = *setup_.chain;
  pkt::Packet* tx[kSendBurst];
  std::uint64_t trace_ids[kSendBurst];
  std::size_t built = 0;
  const std::uint64_t now = rt::now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    ++result_.attempted;
    pkt::Packet* p = spans_.timed(Call::kAlloc, [&] { return chain.pool().alloc_raw(); });
    if (p == nullptr) {
      ++pool_empty_;
      continue;
    }
    const std::uint64_t flow = flows_.next();
    const pkt::FlowKey key = flows_.key(flow);
    spans_.timed(Call::kBuild, [&] { return &pkt::PacketBuilder(*p).udp(key, kFrameLen); });
    const std::uint64_t id = next_id_++;
    p->anno().packet_id = id;
    p->anno().ingress_ns = now;
    p->anno().flow_hash = key.rss_hash();
    p->anno().trace_id = sampler_.sampled(id) ? id : 0;
    trace_ids[built] = p->anno().trace_id;

    IdSlot& s = ids_[id % kIdRing];
    retire_slot(s);
    s.id = id;
    s.due_ns = due[i];
    s.flow = flow;
    tx[built++] = p;
  }
  if (built == 0) return;
  if (measuring_) {
    const std::uint64_t send_ns = rt::now_ns();
    for (std::size_t i = 0; i < built; ++i) {
      const std::uint64_t d = ids_[tx[i]->anno().packet_id % kIdRing].due_ns;
      late_ns_.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(send_ns - std::min(send_ns, d), UINT32_MAX)));
    }
  }
  const std::size_t accepted = spans_.timed(
      Call::kSend, [&] { return chain.ingress().send_burst({tx, built}); });
  for (std::size_t i = 0; i < built; ++i) {
    IdSlot& s = ids_[tx[i]->anno().packet_id % kIdRing];
    if (i < accepted) {
      s.state = SlotState::kOutstanding;
      ++outstanding_;
      if (trace_ids[i] != 0) {
        collector_->record(obs::SpanRecord{trace_ids[i], now, 0,
                                           obs::kSpanSiteGen,
                                           obs::SpanKind::kGenEmit});
      }
    } else {
      ++refused_;
      s.state = SlotState::kFree;
      spans_.timed(Call::kFree, [&] {
        chain.pool().free_raw(tx[i]);
        return 0;
      });
    }
  }
  injected_ += accepted;
  last_send_ns_ = now;
}

void Run::deliver(pkt::Packet* p, std::uint64_t now) {
  const std::uint64_t id = p->anno().packet_id;
  IdSlot& s = ids_[id % kIdRing];
  if (s.id != id || s.state == SlotState::kFree) {
    // Arrived after its slot was reused: already counted as overdue.
    ++unknown_;
    return;
  }
  if (s.state == SlotState::kDelivered) {
    ++duplicates_;
    return;
  }
  s.state = SlotState::kDelivered;
  --outstanding_;
  ++delivered_;
  if (measuring_) {
    const std::size_t sub = (now - window_start_ns_) / kSubWindowNs;
    if (sub < sub_delivered_.size()) ++sub_delivered_[sub];
  }
  if (window_start_ns_ != 0 && s.due_ns >= window_start_ns_) {
    const std::size_t sub = (s.due_ns - window_start_ns_) / kSubWindowNs;
    if (sub < latency_ns_.size()) {
      latency_ns_[sub].push_back(
          static_cast<std::uint32_t>(std::min<std::uint64_t>(now - s.due_ns, UINT32_MAX)));
    }
  }
  if (p->anno().trace_id != 0) {
    collector_->record(obs::SpanRecord{p->anno().trace_id, now, now - s.due_ns,
                                       obs::kSpanSiteSink,
                                       obs::SpanKind::kSinkRecv});
  }
  if (w_.nat) {
    if (auto parsed = pkt::parse_packet(*p)) {
      auto [it, fresh] = egress_flows_.try_emplace(s.flow, EgressFlow{parsed->flow, now});
      if (!fresh && it->second.changed_ns == 0 && !(it->second.tuple == parsed->flow)) {
        it->second.changed_ns = now;
      }
    } else {
      ++unparsable_;
    }
  }
}

std::size_t Run::drain_egress() {
  auto& chain = *setup_.chain;
  pkt::Packet* rx[kPollBurst];
  const std::size_t got = spans_.timed(
      Call::kPoll, [&] { return chain.egress().poll_burst(rx, kPollBurst); });
  if (got == 0) return 0;
  const std::uint64_t now = rt::now_ns();
  std::size_t data = 0;
  for (std::size_t i = 0; i < got; ++i) {
    pkt::Packet* p = rx[i];
    if (!p->anno().is_control && p->anno().packet_id != 0) {
      deliver(p, now);
      ++data;
    }
    spans_.timed(Call::kFree, [&] {
      chain.pool().free_raw(p);
      return 0;
    });
  }
  if (data != 0) {
    ++polls_nonempty_;
    polled_packets_ += data;
    if (last_delivery_ns_ != 0 && now - last_delivery_ns_ > 200'000) {
      gaps_.emplace_back(last_delivery_ns_, now);
    }
    last_delivery_ns_ = now;
  }
  return data;
}

/// Fails kFailPosition and recovers it, timing both calls.
Failover Run::fail_and_recover() {
  auto& chain = *setup_.chain;
  Failover f;
  f.entries = static_cast<double>(
      chain.ftc_node(kFailPosition)->head()->store().total_entries());
  f.start_ns = rt::now_ns();
  chain.fail_position(kFailPosition);
  const std::uint64_t t1 = rt::now_ns();
  const auto reports = setup_.orch->recover({kFailPosition});
  f.end_ns = rt::now_ns();
  f.fail_ms = ns_to_ms(t1 - f.start_ns);
  f.recover_ms = ns_to_ms(f.end_ns - t1);
  f.total_ms = ns_to_ms(f.end_ns - f.start_ns);
  if (!reports.empty()) f.report = reports.front();
  return f;
}

void Run::start_failover() {
  failover_running_.store(true, std::memory_order_release);
  failover_thread_ = std::thread([this] {
    failovers_.push_back(fail_and_recover());
    failover_running_.store(false, std::memory_order_release);
  });
}

void Run::run_traffic() {
  const std::uint64_t warmup_ns = static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
  const std::uint64_t measure_ns = static_cast<std::uint64_t>(seconds_ * 1e9);
  const std::uint64_t t0 = rt::now_ns();
  const std::uint64_t t_measure = t0 + warmup_ns;
  std::vector<std::uint64_t> failover_at;
  if (w_.live_failover) {
    for (int i = 1; i <= kFailovers; ++i) {
      failover_at.push_back(t_measure + measure_ns * i / (kFailovers + 1));
    }
  }
  std::size_t next_failover = 0;
  obs::HotProfiler* prof = setup_.chain->profiler();

  const double ns_per_packet = w_.window == 0 ? 1e9 / w_.rate_pps : 0.0;
  std::uint64_t open_sent = 0;  // Open loop: packets due so far.
  std::uint64_t due[kSendBurst];

  for (;;) {
    const std::uint64_t now = rt::now_ns();
    if (!measuring_ && now >= t_measure) {
      measuring_ = true;
      window_start_ns_ = now;
      sub_delivered_.assign(std::max<std::uint64_t>(1, measure_ns / kSubWindowNs), 0);
      latency_ns_.resize(sub_delivered_.size());
      if (prof != nullptr) prof->reset();
    }
    if (measuring_ && now >= window_start_ns_ + measure_ns) break;
    if (next_failover < failover_at.size() && now >= failover_at[next_failover] &&
        !failover_running_.load(std::memory_order_acquire)) {
      if (failover_thread_.joinable()) failover_thread_.join();
      start_failover();
      ++next_failover;
    }

    if (w_.window != 0) {
      // Closed loop: top the window up.
      while (outstanding_ < w_.window) {
        const std::size_t n = std::min<std::size_t>(kSendBurst, w_.window - outstanding_);
        for (std::size_t i = 0; i < n; ++i) due[i] = now;
        const std::uint64_t before = outstanding_;
        inject(due, n);
        if (outstanding_ == before) break;  // Pool empty or refused.
      }
    } else {
      // Open loop: send everything due, never skipping a due packet.
      const auto due_total = static_cast<std::uint64_t>(
          static_cast<double>(now - t0) / ns_per_packet) + 1;
      while (open_sent < due_total) {
        const std::size_t n = std::min<std::uint64_t>(kSendBurst, due_total - open_sent);
        for (std::size_t i = 0; i < n; ++i) {
          due[i] = t0 + static_cast<std::uint64_t>(
                            static_cast<double>(open_sent + i) * ns_per_packet);
        }
        inject(due, n);
        open_sent += n;
      }
    }
    // A closed loop has nothing to do until the chain delivers: give the
    // core to a chain thread that shares it.
    if (drain_egress() == 0 && w_.window != 0) std::this_thread::yield();
  }
  window_end_ns_ = rt::now_ns();
  measuring_ = false;
  if (failover_thread_.joinable()) failover_thread_.join();

  std::vector<double> rates;
  for (const std::uint64_t n : sub_delivered_) {
    rates.push_back(static_cast<double>(n) / (static_cast<double>(kSubWindowNs) * 1e-9) * 1e-6);
  }
  result_.e2e["tput_mpps"] = median(rates);
  if (prof != nullptr) collect_layers(prof->report());

  // Drain: keep polling until every injected packet is out and the chain
  // is quiescent, or the deadline passes.
  const std::uint64_t deadline = rt::now_ns() + kDrainDeadlineNs;
  while (outstanding_ != 0 && rt::now_ns() < deadline) drain_egress();
  const bool quiet = wait_quiescent(deadline);
  quiesce_ms_ = ns_to_ms(rt::now_ns() - last_send_ns_);
  check(quiet && !corrupt("quiesce"), "chain did not quiesce within the drain deadline");
}

bool Run::wait_quiescent(std::uint64_t deadline_ns) {
  auto& chain = *setup_.chain;
  while (!chain.quiescent()) {
    drain_egress();
    if (rt::now_ns() >= deadline_ns) return false;
    std::this_thread::yield();
  }
  return true;
}

std::vector<std::uint64_t> Run::monitor_counts() {
  std::vector<std::uint64_t> out;
  auto& chain = *setup_.chain;
  for (std::uint32_t pos = 0; pos < chain.num_mboxes(); ++pos) {
    ftc::FtcNode* node = chain.ftc_node(pos);
    auto* monitor = dynamic_cast<mbox::Monitor*>(node->middlebox());
    const auto v = node->head()->store().get(monitor->counter_key(0));
    out.push_back(v ? v->as<std::uint64_t>() : 0);
  }
  return out;
}

/// Monitor workloads: fail and recover the middle position on the
/// quiesced chain. A crash-stop loses parked packets by design, so a live
/// failover would make exactly-once delivery unverifiable here. After each
/// recovery a probe burst checks service is back.
void Run::idle_failovers() {
  for (int i = 0; i < kFailovers; ++i) {
    const auto before = monitor_counts();
    Failover f = fail_and_recover();
    const bool ok = f.report.success && !corrupt("recover");
    check(ok, "recover() did not report success");
    if (!ok) return;
    const auto after = monitor_counts();
    check(after[kFailPosition] == before[kFailPosition] + (corrupt("recovered-state") ? 1 : 0),
          "recovered Monitor store differs from its pre-failure state");

    // Probe: one burst through the replacement; the gap is fail start to
    // its delivery.
    std::uint64_t due[kSendBurst];
    const std::uint64_t now = rt::now_ns();
    for (auto& d : due) d = now;
    inject(due, kSendBurst);
    const std::uint64_t deadline = rt::now_ns() + kDrainDeadlineNs;
    while (outstanding_ != 0 && rt::now_ns() < deadline) drain_egress();
    f.gap_ms = ns_to_ms(rt::now_ns() - f.start_ns);
    failovers_.push_back(f);
    check(wait_quiescent(deadline) && !corrupt("quiesce"),
          "chain did not quiesce after a failover probe");
  }
}

void Run::finish_checks() {
  auto& chain = *setup_.chain;
  const std::uint64_t missing = outstanding_ + overdue_;
  result_.failed = pool_empty_ + refused_ + missing;
  std::fprintf(stderr,
               "%s%s: injected=%llu delivered=%llu pool_empty=%llu refused=%llu "
               "undelivered=%llu overdue=%llu duplicates=%llu\n",
               w_.name, traced_ ? " (traced)" : "",
               static_cast<unsigned long long>(injected_),
               static_cast<unsigned long long>(delivered_),
               static_cast<unsigned long long>(pool_empty_),
               static_cast<unsigned long long>(refused_),
               static_cast<unsigned long long>(outstanding_),
               static_cast<unsigned long long>(overdue_),
               static_cast<unsigned long long>(duplicates_));

  // Exactly once: no duplicates, no unknown ids, nothing missing (the
  // open loops may count undelivered packets as failed ops instead).
  const std::uint64_t expect_delivered = injected_ + (corrupt("exactly-once") ? 1 : 0);
  check(duplicates_ == 0, "packet delivered more than once");
  if (!w_.nat) {
    check(delivered_ == expect_delivered && unknown_ == 0 && missing == 0,
          "not every injected packet id was delivered exactly once");
    const auto counts = monitor_counts();
    const std::uint64_t expect = injected_ + (corrupt("monitor-count") ? 1 : 0);
    for (std::size_t pos = 0; pos < counts.size(); ++pos) {
      check(counts[pos] == expect,
            "Monitor at position " + std::to_string(pos) + " counted " +
                std::to_string(counts[pos]) + " packets, injected " +
                std::to_string(expect));
    }
    return;
  }

  check(delivered_ + missing + (corrupt("exactly-once") ? 1 : 0) == injected_,
        "delivered + undelivered does not add up to injected");
  for (const auto& f : failovers_) {
    check(f.report.success && !corrupt("recover"), "recover() did not report success");
  }
  check(unparsable_ == 0, "an egress packet did not parse");

  // Connection persistence (paper 3.2): a flow seen at egress before a
  // failure leaves with the same translated 5-tuple after it. A flow whose
  // first packet was still inside the chain when the head failed is not
  // covered; its remaps are counted (state.nat_remapped_flows).
  std::vector<std::uint64_t> fail_starts;
  for (const auto& f : failovers_) fail_starts.push_back(f.start_ns);
  const auto seen_before_failure = [&](std::uint64_t first_ns, std::uint64_t until_ns) {
    return std::any_of(fail_starts.begin(), fail_starts.end(), [&](std::uint64_t fs) {
      return first_ns < fs && fs <= until_ns;
    });
  };
  if (corrupt("nat-persistence")) {
    for (auto& [index, ef] : egress_flows_) {
      if (seen_before_failure(ef.first_ns, UINT64_MAX)) {
        ef.changed_ns = UINT64_MAX;  // Pretend it left with another tuple.
        break;
      }
    }
  }
  std::uint64_t broken = 0;
  for (const auto& [index, ef] : egress_flows_) {
    if (ef.changed_ns == 0) continue;
    if (seen_before_failure(ef.first_ns, ef.changed_ns)) {
      ++broken;
    } else {
      ++remapped_flows_;
    }
  }
  check(broken == 0, "translated 5-tuple changed across a failover for " +
                         std::to_string(broken) + " flows");

  // The recovered MazuNAT store holds the mapping of every flow seen at
  // egress before the last failure: MazuNAT[flow] -> O, SimpleNAT[O] -> the
  // egress tuple.
  const std::uint64_t last_fail = fail_starts.empty() ? 0 : fail_starts.back();
  ftc::FtcNode* mazu = chain.ftc_node(1);
  ftc::FtcNode* simple = chain.ftc_node(2);
  std::uint64_t lost = 0;
  std::uint64_t recorded = 0;
  for (const auto& [index, ef] : egress_flows_) {
    if (ef.first_ns >= last_fail) continue;
    pkt::FlowKey expect = ef.tuple;
    if (recorded++ == 0 && corrupt("nat-store")) expect.src_port ^= 1;
    const auto outer = mazu->head()->store().get(flows_.key(index).hash());
    if (!outer) {
      ++lost;
      continue;
    }
    const pkt::FlowKey o = outer->as<mbox::NatEntry>().rewritten;
    const auto inner = simple->head()->store().get(o.hash());
    if (!inner || !(inner->as<mbox::NatEntry>().rewritten == expect)) ++lost;
  }
  check(lost == 0, "recovered MazuNAT store lost or changed " + std::to_string(lost) +
                       " of " + std::to_string(recorded) + " mappings");
}

void Run::collect_layers(const obs::BudgetReport& budget) {
  auto& L = result_.layer;
  // Aggregate the chain's worker slots per ring position (a replacement
  // node's worker registers a new slot under the same position label).
  struct Agg {
    std::uint64_t packets{0}, bursts{0}, wall{0};
    std::array<std::uint64_t, obs::kProfStageCount> cycles{}, ops{};
  };
  std::map<int, Agg> by_pos;  // -1 = every node worker
  for (const auto& wk : budget.workers) {
    int pos = -2;
    if (std::sscanf(wk.worker.c_str(), "ftc-node-%d-t", &pos) != 1) continue;
    for (int key : {pos, -1}) {
      Agg& a = by_pos[key];
      a.packets += wk.packets;
      a.bursts += wk.bursts;
      a.wall += wk.wall_cycles;
      for (std::size_t s = 0; s < obs::kProfStageCount; ++s) {
        a.cycles[s] += wk.stages[s].cycles;
        a.ops[s] += wk.stages[s].ops;
      }
    }
  }
  const double ns_per_cycle = budget.tsc_hz > 0 ? 1e9 / budget.tsc_hz : 0.0;
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto stage_ns = [&](const Agg& a, obs::ProfStage st) {
    const auto i = static_cast<std::size_t>(st);
    const double denom = obs::prof_stage_primary(st) ? static_cast<double>(a.packets)
                                                     : static_cast<double>(a.ops[i]);
    return per(static_cast<double>(a.cycles[i]), denom) * ns_per_cycle;
  };
  using S = obs::ProfStage;
  const std::pair<const char*, S> per_position[] = {
      {"poll", S::kPoll},           {"view_walk", S::kViewWalk},
      {"log_apply", S::kLogApply},  {"tail_commit", S::kTailCommit},
      {"append", S::kAppend},       {"egress_flush", S::kEgressFlush}};
  for (int pos : {-1, 0, 1, 2}) {
    const Agg& a = by_pos[pos];
    const std::string sfx = pos < 0 ? "" : ".p" + std::to_string(pos);
    std::uint64_t primary = 0;
    for (std::size_t s = 0; s < obs::kProfPrimaryStageCount; ++s) primary += a.cycles[s];
    for (const auto& [name, st] : per_position) {
      L[std::string("core.") + name + "_ns" + sfx] = stage_ns(a, st);
    }
    L["core.reconciliation" + sfx] = per(static_cast<double>(primary), static_cast<double>(a.wall));
  }
  const Agg& all = by_pos[-1];
  L["core.park_drain_ns"] = stage_ns(all, S::kParkDrain);
  L["core.process_ns"] = stage_ns(all, S::kProcess);
  L["core.handoff_drain_ns"] = stage_ns(all, S::kHandoffDrain);
  L["state.apply_wire_ns"] = stage_ns(all, S::kStoreApply);
  std::uint64_t primary = 0;
  for (std::size_t s = 0; s < obs::kProfPrimaryStageCount; ++s) primary += all.cycles[s];
  L["core.total_ns"] = per(static_cast<double>(primary), static_cast<double>(all.packets)) * ns_per_cycle;
  L["core.burst_occupancy"] = per(static_cast<double>(all.packets), static_cast<double>(all.bursts));
}

RunResult Run::execute() {
  setup_ = build_chain(w_, opt_.seed, traced_);
  auto& chain = *setup_.chain;
  if (traced_) {
    // Registers as the chain registry's span sink; the driver records its
    // own gen/sink spans into it too.
    collector_ = std::make_unique<obs::SpanCollector>(&chain.registry());
  }
  result_.e2e["setup_s"] = setup_.setup_s;

  run_traffic();
  if (!w_.live_failover) idle_failovers();

  std::vector<double> rec, fail, recov, init, fetch, reroute, gap, entries;
  for (const auto& f : failovers_) {
    rec.push_back(f.total_ms);
    fail.push_back(f.fail_ms);
    recov.push_back(f.recover_ms);
    init.push_back(ns_to_ms(f.report.initialization_ns));
    fetch.push_back(ns_to_ms(f.report.state_recovery_ns));
    reroute.push_back(ns_to_ms(f.report.rerouting_ns));
    entries.push_back(f.entries);
    double g = f.gap_ms;
    if (w_.live_failover) {
      // Longest egress gap that overlaps the failover.
      for (const auto& [from, to] : gaps_) {
        if (to >= f.start_ns && from <= f.end_ns) g = std::max(g, ns_to_ms(to - from));
      }
    }
    gap.push_back(g);
  }
  check(failovers_.size() == static_cast<std::size_t>(kFailovers),
        "not every failover completed");
  std::fprintf(stderr, "%s%s: recovery_ms", w_.name, traced_ ? " (traced)" : "");
  for (const auto& f : failovers_) {
    std::fprintf(stderr, " %.2f(fetch %.2f)", f.total_ms, ns_to_ms(f.report.state_recovery_ns));
  }
  std::fprintf(stderr, "\n");
  finish_checks();

  // lat_p50_us is the median of the sub-windows' medians, so a transient
  // stall of the host moves it less; the p99 is over every packet.
  std::vector<double> lat, sub_p50;
  for (const auto& sub : latency_ns_) {
    if (sub.empty()) continue;
    std::vector<double> v(sub.begin(), sub.end());
    sub_p50.push_back(quantile(v, 0.5));
    lat.insert(lat.end(), v.begin(), v.end());
  }
  result_.e2e["lat_p50_us"] = median(sub_p50) * 1e-3;
  std::fprintf(stderr, "%s%s: lat_p50_us=%.1f lat_p99_us=%.1f\n", w_.name,
               traced_ ? " (traced)" : "", median(sub_p50) * 1e-3, quantile(lat, 0.99) * 1e-3);
  result_.e2e["recovery_ms"] = median(rec);

  if (traced_) {
    auto& L = result_.layer;
    L["driver.lat_p99_us"] = quantile(lat, 0.99) * 1e-3;
    std::vector<double> late(late_ns_.begin(), late_ns_.end());
    L["driver.late_p99_us"] = quantile(late, 0.99) * 1e-3;
    L["driver.ops_attempted"] = static_cast<double>(result_.attempted);
    L["driver.ops_failed"] = static_cast<double>(result_.failed);
    L["driver.fail_ratio"] = static_cast<double>(result_.failed) /
                             static_cast<double>(std::max<std::uint64_t>(1, result_.attempted));
    L["packet.alloc_ns"] = spans_.mean_ns(Call::kAlloc);
    L["packet.build_ns"] = spans_.mean_ns(Call::kBuild);
    L["packet.free_ns"] = spans_.mean_ns(Call::kFree);
    L["packet.pool_empty"] = static_cast<double>(pool_empty_);
    L["net.ingress_send_ns"] = spans_.mean_ns(Call::kSend);
    L["net.ingress_refused"] = static_cast<double>(refused_);
    L["net.egress_poll_ns"] = spans_.mean_ns(Call::kPoll);
    L["net.egress_occupancy"] = static_cast<double>(polled_packets_) /
                                static_cast<double>(std::max<std::uint64_t>(1, polls_nonempty_));
    L["core.drain_ms"] = quiesce_ms_;
    L["chain.construct_ms"] = setup_.construct_ms;
    L["chain.start_ms"] = setup_.start_ms;
    L["orch.fail_ms"] = median(fail);
    L["orch.recover_ms"] = median(recov);
    L["orch.init_ms"] = median(init);
    L["orch.state_fetch_ms"] = median(fetch);
    L["orch.reroute_ms"] = median(reroute);
    L["orch.failover_gap_ms"] = median(gap);
    L["state.entries"] = median(entries);
    L["state.nat_remapped_flows"] = static_cast<double>(remapped_flows_);

    // Registry counters and gauges of every node.
    double parked = 0, nacks = 0, owner_miss = 0, handoff_hw = 0;
    rt::Histogram pb_bytes;
    for (const auto& s : chain.registry().snapshot()) {
      if (s.name == "node.packets_parked") parked += s.value;
      else if (s.name == "node.nacks_sent") nacks += s.value;
      else if (s.name == "state.owner_miss") owner_miss += s.value;
      else if (s.name == "state.handoff_depth_hw") handoff_hw = std::max(handoff_hw, s.value);
      else if (s.name == "piggyback.bytes_per_packet") pb_bytes.merge(s.hist);
    }
    L["core.parked"] = parked;
    L["core.nacks"] = nacks;
    L["state.owner_miss"] = owner_miss;
    L["state.handoff_depth_hw"] = handoff_hw;
    L["core.piggyback_bytes"] = pb_bytes.mean();

    // Per-hop medians from the sampled spans, merged per ring position.
    std::map<std::uint32_t, obs::HopBreakdown> hops;
    for (auto& h : obs::per_hop_breakdown(collector_->snapshot())) {
      auto& m = hops[h.position];
      m.process_ns.merge(h.process_ns);
      m.apply_ns.merge(h.apply_ns);
      m.transit_ns.merge(h.transit_ns);
    }
    for (std::uint32_t pos = 0; pos < 3; ++pos) {
      const auto& h = hops[pos];
      const std::string sfx = ".p" + std::to_string(pos);
      L["core.hop_process_us" + sfx] = hist_median(h.process_ns) * 1e-3;
      L["core.hop_apply_us" + sfx] = hist_median(h.apply_ns) * 1e-3;
      L["core.hop_transit_us" + sfx] = hist_median(h.transit_ns) * 1e-3;
    }
  }

  // The collector unregisters from the chain registry: destroy it after
  // the chain threads stop and before the chain.
  setup_.orch.reset();
  chain.stop();
  collector_.reset();
  setup_.chain.reset();
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// Output

std::string unit_of(const std::string& name) {
  static const std::pair<const char*, const char*> kSuffix[] = {
      {"_mpps", "Mpps"}, {"_us", "us"}, {"_ms", "ms"}, {"_s", "s"}, {"_ns", "ns"}};
  if (name.rfind("obs.trace_overhead", 0) == 0) return "ratio";
  // Per-position metrics end in ".p<N>"; the unit follows the base name.
  const std::size_t dot = name.rfind(".p");
  const std::string base = dot != std::string::npos && dot + 2 < name.size() &&
                                   std::isdigit(static_cast<unsigned char>(name[dot + 2]))
                               ? name.substr(0, dot)
                               : name;
  for (const auto& [sfx, unit] : kSuffix) {
    const std::size_t n = std::strlen(sfx);
    if (base.size() >= n && base.compare(base.size() - n, n, sfx) == 0) return unit;
  }
  if (name.rfind("core.reconciliation", 0) == 0 || name == "driver.fail_ratio") return "ratio";
  if (name == "core.burst_occupancy" || name == "net.egress_occupancy") return "pkts/burst";
  if (name == "core.piggyback_bytes") return "bytes";
  return "count";
}

void print_result(const RunResult& r, const std::map<std::string, double>& metrics) {
  std::string out = "{\"correct\": ";
  out += r.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    out += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit_of(name) + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: ftc_perfbench --workload <monitor-closed|monitor-reorder|"
               "nat-failover> --seed <n> --seconds <s> --trace <0|1> "
               "[--corrupt <check>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) return usage();
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--corrupt") {
      opt.corrupt = value;
    } else {
      return usage();
    }
  }
  if (opt.workload == nullptr || argc % 2 == 0 || opt.seconds <= 0) return usage();

  std::map<std::string, double> metrics;
  RunResult result;
  if (!opt.trace) {
    result = Run(*opt.workload, opt, opt.seconds, false).execute();
    metrics = result.e2e;
  } else {
    // Untraced then traced, half of the time each; the ratio of the two is
    // the tracing overhead.
    const RunResult plain = Run(*opt.workload, opt, opt.seconds / 2, false).execute();
    result = Run(*opt.workload, opt, opt.seconds / 2, true).execute();
    metrics = result.layer;
    for (const auto& [name, value] : result.e2e) {
      const double base = plain.e2e.at(name);
      metrics["obs.trace_overhead." + name] = base != 0 ? value / base : 0.0;
    }
    for (const auto& e : plain.errors) result.errors.push_back("untraced run: " + e);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
  }
  for (const auto& e : result.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  print_result(result, metrics);
  return result.errors.empty() ? 0 : 1;
}
