// Tests for the span tracing layer: deterministic sampling, the
// lock-free collector, span ordering across a real lossy FTC chain, the
// recovery timeline derived from a monitor-driven recovery, and the
// Chrome trace-event JSON exporter (validated with a minimal JSON
// parser — Perfetto only accepts well-formed documents).
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/chain.hpp"
#include "mbox/monitor.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"
#include "orch/orchestrator.hpp"
#include "runtime/clock.hpp"
#include "tgen/traffic.hpp"
#include "span_match.hpp"
#include "wait_until.hpp"

namespace sfc::obs {
namespace {

using namespace std::chrono_literals;

// --- Minimal JSON validator (objects/arrays/strings/numbers/bools). ----

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parses one complete JSON value; fails on trailing garbage.
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // Raw control.
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string_view(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_{0};
};

// --- Sampler. -----------------------------------------------------------

TEST(SpanSampler, DeterministicAcrossInstances) {
  const SpanSampler a(8, 42), b(8, 42), other_seed(8, 43);
  int same = 0, hits_a = 0, hits_other = 0;
  for (std::uint64_t id = 1; id <= 4096; ++id) {
    EXPECT_EQ(a.sampled(id), b.sampled(id));
    same += a.sampled(id) == other_seed.sampled(id);
    hits_a += a.sampled(id);
    hits_other += other_seed.sampled(id);
  }
  // ~1 in 8 sampled, and a different seed picks a different set.
  EXPECT_GT(hits_a, 4096 / 8 / 2);
  EXPECT_LT(hits_a, 4096 / 8 * 2);
  EXPECT_LT(same, 4096);
  EXPECT_GT(hits_other, 0);
}

TEST(SpanSampler, ZeroDisablesOneSamplesAll) {
  const SpanSampler off(0, 1), all(1, 1);
  EXPECT_FALSE(off.enabled());
  for (std::uint64_t id = 1; id <= 64; ++id) {
    EXPECT_FALSE(off.sampled(id));
    EXPECT_TRUE(all.sampled(id));
  }
}

// --- Protocol sequences. ------------------------------------------------

TEST(SpanSequence, ContainsSequenceMatchesSubsequences) {
  const std::uint32_t a = span_site_node(1), b = span_site_node(2);
  const auto at = [](std::uint32_t site, SpanKind kind) {
    SpanRecord r;
    r.site = site;
    r.kind = kind;
    return r;
  };
  const std::vector<SpanRecord> records = {
      at(a, SpanKind::kPark), at(b, SpanKind::kNackServed),
      at(a, SpanKind::kNackSent), at(a, SpanKind::kUnpark)};
  EXPECT_TRUE(test::contains_sequence(
      records, a, {SpanKind::kPark, SpanKind::kNackSent, SpanKind::kUnpark}));
  EXPECT_TRUE(test::contains_sequence(records, b, {SpanKind::kNackServed}));
  // Only the given site's records count.
  EXPECT_FALSE(test::contains_sequence(records, a, {SpanKind::kNackServed}));
  // Order matters.
  EXPECT_FALSE(test::contains_sequence(records, a,
                                       {SpanKind::kUnpark, SpanKind::kPark}));
  EXPECT_FALSE(test::contains_sequence(records, a, {SpanKind::kFail}));
  EXPECT_FALSE(test::contains_sequence({}, a, {SpanKind::kPark}));
}

// --- Collector. ---------------------------------------------------------

TEST(SpanCollector, CollectsFromManyThreadsWithoutLoss) {
  Registry registry;
  SpanCollector collector(&registry);
  ASSERT_EQ(registry.span_sink(), &collector);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;  // Below the per-thread ring capacity.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector, t] {
      for (int i = 0; i < kPerThread; ++i) {
        collector.record(SpanRecord{static_cast<std::uint64_t>(t + 1),
                                    rt::now_ns(),
                                    static_cast<std::uint64_t>(i),
                                    span_site_node(0), SpanKind::kProcess});
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto records = collector.snapshot();
  ASSERT_EQ(records.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(collector.dropped(), 0u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].ts_ns, records[i].ts_ns);  // Sorted snapshot.
  }

  collector.clear();
  EXPECT_TRUE(collector.snapshot().empty());
  EXPECT_EQ(collector.collected(), 0u);
}

TEST(SpanCollector, UnregistersFromRegistryOnDestruction) {
  Registry registry;
  {
    SpanCollector collector(&registry);
    EXPECT_EQ(registry.span_sink(), &collector);
  }
  EXPECT_EQ(registry.span_sink(), nullptr);
  // A second collector on the same registry takes over cleanly (the
  // thread-local queue cache from the first one must not be reused).
  SpanCollector second(&registry);
  second.record(SpanRecord{1, rt::now_ns(), 0, kSpanSiteGen,
                           SpanKind::kGenEmit});
  EXPECT_EQ(second.snapshot().size(), 1u);
}

TEST(SpanCollector, FirstRecordUnderComponentLockSafeAgainstSnapshot) {
  // Regression: local_ring() used to register its health gauges inline on
  // the record path, taking the registry mutex (rank obs.registry) while
  // holding span.register — a lock-order inversion against
  // Registry::snapshot() driving component callbacks. Registration is now
  // deferred to the drain side; with lock-rank checks on, reintroducing
  // the inline registration aborts this test.
  Registry registry;
  SpanCollector collector(&registry);
  Mutex component_lock{ranks::kNode, "test.component"};
  std::thread recorder([&] {
    // First record from this thread while holding a component-level lock,
    // as the egress-flush instrumentation does: creates the ring.
    LockGuard hold(component_lock);
    collector.record(SpanRecord{7, rt::now_ns(), 0, span_site_node(1),
                                SpanKind::kBufferRelease});
  });
  // Meanwhile, snapshot the registry (invokes gauge callbacks under the
  // registry mutex) — the historical deadlock's other half.
  for (int i = 0; i < 50; ++i) (void)registry.snapshot();
  recorder.join();

  // After an explicit drain the deferred ring gauges are registered.
  collector.drain();
  bool dropped_gauge = false;
  bool high_water_gauge = false;
  for (const auto& s : registry.snapshot()) {
    dropped_gauge |= s.name == "span.ring_dropped";
    high_water_gauge |= s.name == "span.ring_high_water";
  }
  EXPECT_TRUE(dropped_gauge);
  EXPECT_TRUE(high_water_gauge);
}

// --- End-to-end ordering across a lossy, reordering chain. --------------

TEST(SpanChain, SpansOrderedAcrossLossyChain) {
  ftc::ChainRuntime::Spec spec;
  spec.mode = ftc::ChainMode::kFtc;
  spec.cfg.f = 1;
  spec.cfg.link.loss = 0.05;
  spec.cfg.link.reorder = 0.2;
  spec.cfg.link.delay_ns = 50'000;
  for (int i = 0; i < 3; ++i) {
    spec.mbox_factories.push_back(
        [] { return std::unique_ptr<mbox::Middlebox>(new mbox::Monitor(1)); });
  }
  ftc::ChainRuntime chain(spec);
  chain.start();
  SpanCollector spans(&chain.registry());

  tgen::Workload w;
  w.num_flows = 32;
  w.trace_sample = 4;
  const auto result =
      tgen::run_load(chain.pool(), chain.ingress(), chain.egress(), w,
                     /*rate_pps=*/20'000.0, /*duration_s=*/0.4,
                     /*warmup_s=*/0.05, &spans);
  chain.stop();
  ASSERT_GT(result.received, 0u);

  const auto records = spans.snapshot();
  ASSERT_FALSE(records.empty());

  // Group per trace (snapshot is time-sorted, so per-trace order is
  // arrival order).
  std::map<std::uint64_t, std::vector<SpanRecord>> traces;
  for (const auto& r : records) traces[r.trace_id].push_back(r);

  std::size_t complete_traces = 0;
  for (const auto& [trace_id, trace] : traces) {
    ASSERT_NE(trace_id, 0u);
    bool has_sink = false;
    for (const auto& r : trace) {
      has_sink |= r.kind == SpanKind::kSinkRecv;
    }
    if (!has_sink) continue;  // Dropped by a lossy link: partial trace.
    ++complete_traces;

    // Generator first, sink last, node positions non-decreasing between.
    EXPECT_EQ(trace.front().kind, SpanKind::kGenEmit);
    EXPECT_EQ(trace.back().kind, SpanKind::kSinkRecv);
    std::uint64_t last_pos = 0;
    std::set<std::uint64_t> positions;
    for (const auto& r : trace) {
      if (r.kind != SpanKind::kNodeIngress) continue;
      EXPECT_GE(r.a, last_pos);  // Chain order despite link reordering.
      last_pos = r.a;
      positions.insert(r.a);
    }
    // A delivered packet crossed every hop.
    EXPECT_EQ(positions.size(), 3u);
  }
  EXPECT_GT(complete_traces, 0u);

  // Per-hop breakdown covers every chain position with real samples.
  const auto hops = per_hop_breakdown(records);
  std::set<std::uint32_t> hop_positions;
  for (const auto& hop : hops) {
    hop_positions.insert(hop.position);
    EXPECT_GT(hop.hop_ns.count(), 0u);
  }
  for (std::uint32_t pos = 0; pos < 3; ++pos) {
    EXPECT_TRUE(hop_positions.count(pos)) << "no breakdown for pos " << pos;
  }
}

// --- Commit vectors ride only from wrap-around tails. -------------------

// Only the egress buffer reads a commit vector on a packet, and it holds
// packets on wrap-around logs only: the tails at positions < f (whose
// middlebox sits later in the chain) attach commits, the others never do.
TEST(SpanChain, CommitsAttachOnlyAtWrapAroundTails) {
  const std::pair<int, std::uint32_t> shapes[] = {{3, 1}, {4, 2}};
  for (const auto& [len, f] : shapes) {
    SCOPED_TRACE("Ch-" + std::to_string(len) + " f=" + std::to_string(f));
    ftc::ChainRuntime::Spec spec;
    spec.mode = ftc::ChainMode::kFtc;
    spec.cfg.f = f;
    for (int i = 0; i < len; ++i) {
      spec.mbox_factories.push_back(
          [] { return std::unique_ptr<mbox::Middlebox>(new mbox::Monitor(1)); });
    }
    ftc::ChainRuntime chain(spec);
    chain.start();
    SpanCollector spans(&chain.registry());
    tgen::Workload w;
    w.num_flows = 32;
    w.trace_sample = 1;
    tgen::TrafficSource source(chain.pool(), chain.ingress(), w,
                               /*rate_pps=*/5'000.0, &spans);
    tgen::TrafficSink sink(chain.pool(), chain.egress(), &spans);
    sink.start();
    source.start();
    // Every packet is traced: a few hundred delivered packets crossed
    // every tail after it had applied logs.
    const bool delivered = test::wait_until(
        [&] { return sink.packets_received() >= 300; }, 30s);
    source.stop();
    sink.stop();
    chain.stop();
    ASSERT_TRUE(delivered) << "delivered " << sink.packets_received();

    const auto records = spans.snapshot();
    for (std::uint32_t pos = 0; pos < chain.ring_size(); ++pos) {
      EXPECT_EQ(test::contains_sequence(
                    records, span_site_node(chain.ftc_node(pos)->id()),
                    {SpanKind::kCommitAttach}),
                pos < f)
          << "position " << pos;
    }
  }
}

// --- Recovery timeline. -------------------------------------------------

TEST(SpanRecovery, TimelineCompleteAndMonotonicAfterFailStop) {
  ftc::ChainRuntime::Spec spec;
  spec.mode = ftc::ChainMode::kFtc;
  spec.cfg.f = 1;
  for (int i = 0; i < 3; ++i) {
    spec.mbox_factories.push_back(
        [] { return std::unique_ptr<mbox::Middlebox>(new mbox::Monitor(1)); });
  }
  ftc::ChainRuntime chain(spec);
  chain.start();
  SpanCollector spans(&chain.registry());

  // Generous timeout: this may run on a single oversubscribed core where
  // a healthy node's control worker can be starved for tens of ms — a
  // short timeout would false-positive on nodes we never failed.
  orch::OrchestratorConfig ocfg;
  ocfg.heartbeat_interval_ns = 10'000'000;
  ocfg.failure_timeout_ns = 500'000'000;
  ocfg.spawn_delay_ns = 100'000;
  orch::Orchestrator orchestrator(chain, ocfg);
  orchestrator.start();

  // Build state, then crash position 1 and let the monitor find it.
  tgen::Workload w;
  w.num_flows = 32;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), w, 20'000.0);
  tgen::TrafficSink sink(chain.pool(), chain.egress());
  sink.start();
  source.start();
  EXPECT_TRUE(
      test::wait_until([&] { return sink.packets_received() >= 200; }, 10s));
  // Quiesce the traffic before crashing: the detection window must not
  // race parallel test binaries AND 20 kpps of load for CPU time, or a
  // healthy node's silence gets misattributed.
  source.stop();
  chain.fail_position(1);
  std::vector<orch::RecoveryReport> reports;
  const auto pos1_report = [&]() -> const orch::RecoveryReport* {
    reports = orchestrator.reports();
    for (const auto& r : reports) {
      if (r.position == 1) return &r;
    }
    return nullptr;
  };
  const auto* report = test::wait_until(pos1_report, 20s);
  sink.stop();
  orchestrator.stop();
  chain.stop();

  ASSERT_NE(report, nullptr);
  ASSERT_TRUE(report->success);

  const auto timelines = recovery_timelines(spans.snapshot());
  ASSERT_GE(timelines.size(), 1u);
  const RecoveryTimeline* found = nullptr;
  for (const auto& t : timelines) {
    if (t.position == 1) found = &t;
  }
  ASSERT_NE(found, nullptr);
  const auto& tl = *found;
  EXPECT_TRUE(tl.complete());
  // Monotonic through every phase the timeline exposes.
  EXPECT_LE(tl.fail_ns, tl.detect_ns);
  EXPECT_LE(tl.detect_ns, tl.spawn_ns);
  EXPECT_LE(tl.spawn_ns, tl.init_ack_ns);
  EXPECT_LE(tl.fetch_start_ns, tl.fetch_done_ns);
  EXPECT_LE(tl.fetch_done_ns, tl.reroute_ns);
  EXPECT_GT(tl.total_ns(), 0u);
  // Detection needed a real silence window to elapse (monitor-driven, not
  // instantaneous).
  EXPECT_GE(tl.time_to_detect_ns(), ocfg.failure_timeout_ns / 4);
}

TEST(SpanNack, RoundTripsPairEachSendWithTheNextReply) {
  const std::uint64_t id = protocol_trace_id(1);
  const auto rec = [id](std::uint64_t ts, std::uint32_t node, SpanKind kind,
                        std::uint64_t mbox) {
    return SpanRecord{id, ts, mbox, span_site_node(node), kind};
  };
  // Out of time order, as rings hand them over.
  const std::vector<SpanRecord> records{
      rec(1'150, 2, SpanKind::kNackApplied, 0),  // node 2, mbox 0: 150
      rec(1'000, 2, SpanKind::kNackSent, 0),
      rec(2'000, 2, SpanKind::kNackSent, 1),     // mbox 1: 500 and 300
      rec(2'200, 2, SpanKind::kNackSent, 1),
      rec(2'500, 2, SpanKind::kNackApplied, 1),
      rec(2'600, 2, SpanKind::kNackApplied, 1),  // nothing waiting
      rec(1'100, 3, SpanKind::kNackSent, 0),     // node 3: 4000
      rec(5'100, 3, SpanKind::kNackApplied, 0),
      rec(1'200, 3, SpanKind::kNackServed, 0),   // not part of a round trip
      rec(9'000, 3, SpanKind::kNackSent, 0),     // never answered
  };
  const rt::Histogram rtt = nack_round_trips(records);
  ASSERT_EQ(rtt.count(), 4u);
  EXPECT_EQ(rtt.min(), 150u);
  EXPECT_EQ(rtt.max(), 4'000u);
  EXPECT_DOUBLE_EQ(rtt.mean(), (150.0 + 500.0 + 300.0 + 4'000.0) / 4);
  EXPECT_EQ(nack_round_trips({}).count(), 0u);
}

// --- Chrome trace JSON. -------------------------------------------------

TEST(ChromeTrace, EmitsValidJsonWithSlicesAndMetadata) {
  // Synthetic trace: one packet through gen -> node0 -> link -> node1 ->
  // buffer -> sink, plus one recovery trace.
  std::vector<SpanRecord> records;
  const std::uint64_t t0 = 1'000'000;
  const std::uint64_t trace = 7;
  auto add = [&records](std::uint64_t id, std::uint64_t ts, std::uint64_t a,
                        std::uint32_t site, SpanKind kind) {
    records.push_back(SpanRecord{id, ts, a, site, kind});
  };
  add(trace, t0, 99, kSpanSiteGen, SpanKind::kGenEmit);
  add(trace, t0 + 100, 0, span_site_node(0), SpanKind::kNodeIngress);
  add(trace, t0 + 180, 50, span_site_node(0), SpanKind::kProcess);
  add(trace, t0 + 200, 0, span_site_node(0), SpanKind::kNodeEgress);
  add(trace, t0 + 210, 0, span_site_link(0), SpanKind::kLinkEnter);
  add(trace, t0 + 300, 0, span_site_link(0), SpanKind::kLinkExit);
  add(trace, t0 + 310, 1, span_site_node(1), SpanKind::kNodeIngress);
  add(trace, t0 + 400, 0, span_site_node(1), SpanKind::kNodeEgress);
  add(trace, t0 + 410, 0, kSpanSiteBuffer, SpanKind::kBufferHold);
  add(trace, t0 + 500, 0, kSpanSiteBuffer, SpanKind::kBufferRelease);
  add(trace, t0 + 600, 500, kSpanSiteSink, SpanKind::kSinkRecv);
  const std::uint64_t rec = recovery_trace_id(1);
  add(rec, t0 + 50, 1, span_site_node(1), SpanKind::kFail);
  add(rec, t0 + 700, 5, kSpanSiteOrch, SpanKind::kDetect);
  add(rec, t0 + 800, 9, kSpanSiteOrch, SpanKind::kSpawn);
  add(rec, t0 + 900, 0, span_site_node(9), SpanKind::kFetchStart);
  add(rec, t0 + 950, 0, span_site_node(9), SpanKind::kFetchDone);
  add(rec, t0 + 990, 1, kSpanSiteOrch, SpanKind::kReroute);

  const std::string json =
      to_chrome_trace(records, {{kSpanSiteGen, "traffic-gen"}});
  JsonParser parser(json);
  EXPECT_TRUE(parser.valid()) << json;

  // Structural spot checks the parser alone can't make.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // Slices.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // Instants.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // Metadata.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("traffic-gen"), std::string::npos);
  EXPECT_NE(json.find("\"hop\""), std::string::npos);
  EXPECT_NE(json.find("\"transit\""), std::string::npos);
  EXPECT_NE(json.find("\"buffered\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
  EXPECT_EQ(json.find("\"dur\":-"), std::string::npos);  // No negatives.
}

TEST(ChromeTrace, EmptyRecordsStillValid) {
  const std::string json = to_chrome_trace({});
  JsonParser parser(json);
  EXPECT_TRUE(parser.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace sfc::obs
