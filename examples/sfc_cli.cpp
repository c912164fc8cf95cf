// sfc_cli — assemble and drive an arbitrary fault-tolerant chain from the
// command line. The "operator" entry point of the library: pick a mode,
// list middleboxes, choose f/threads/rate, optionally inject a failure
// mid-run or capture traffic to a pcap.
//
// For example (one command line):
//   ./example_sfc_cli --mode ftc --chain monitor,nat,firewall --f 1
//       --threads 2 --rate 50000 --duration 2 --fail 1 --fail-after 0.8
//       --pcap out.pcap
//
// Middlebox names: monitor[:sharing] nat simplenat gen[:statesize]
//                  firewall lb
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/chain.hpp"
#include "mbox/firewall.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/prof.hpp"
#include "obs/span.hpp"
#include "mbox/gen.hpp"
#include "mbox/load_balancer.hpp"
#include "mbox/monitor.hpp"
#include "mbox/nat.hpp"
#include "orch/orchestrator.hpp"
#include "packet/pcap.hpp"
#include "state/shard_map.hpp"
#include "tgen/traffic.hpp"

using namespace sfc;

namespace {

struct Options {
  ftc::ChainMode mode{ftc::ChainMode::kFtc};
  std::vector<std::string> chain{"monitor", "nat"};
  std::uint32_t f{1};
  std::size_t threads{1};
  double rate_pps{50'000};
  double duration_s{2.0};
  std::size_t flows{64};
  std::size_t frame_len{256};
  std::size_t burst{32};
  double loss{0.0};
  double reorder{0.0};
  double link_delay_us{0.0};
  ftc::TransportMode transport{ftc::TransportMode::kRaw};
  std::uint32_t rel_window{0};        ///< 0 = library default.
  double rel_rto_min_us{0.0};         ///< 0 = library default.
  double rel_rto_max_us{0.0};         ///< 0 = library default.
  bool rel_congestion{false};
  int fail_position{-1};
  double fail_after_s{0.5};
  std::string pcap_path;
  bool stats{false};
  double stats_interval_s{1.0};
  std::string stats_json_path;
  bool trace{false};
  std::uint64_t trace_sample{64};
  std::string trace_out{"trace.json"};
  bool budget{false};
  bool quiet_assert{false};
  double warmup_s{0.25};
};

void usage() {
  std::puts(
      "usage: sfc_cli [options]\n"
      "  --mode nf|ftc|ftmb|ftmb-snapshot   runtime mode (default ftc)\n"
      "  --chain a,b,c       middleboxes: monitor[:sharing] nat simplenat\n"
      "                      gen[:statesize] firewall lb (default monitor,nat)\n"
      "  --f N               failures tolerated (default 1)\n"
      "  --threads N         threads per server, 1..16 (default 1)\n"
      "  --rate PPS          offered load, 0 = max (default 50000)\n"
      "  --duration SEC      run time (default 2)\n"
      "  --flows N           concurrent flows (default 64)\n"
      "  --frame BYTES       frame size (default 256)\n"
      "  --burst N           data-path burst size, 1 = per-packet (default 32)\n"
      "  --loss P            per-link packet drop probability (default 0)\n"
      "  --reorder P         per-link reorder probability (default 0)\n"
      "  --link-delay US     per-link one-way delay in microseconds\n"
      "  --transport raw|reliable   segment transport: raw links drop on\n"
      "                      wire loss; reliable runs the windowed adaptive-\n"
      "                      RTO channel on every segment (default raw)\n"
      "  --rel-window N      reliable: sliding-window size in packets\n"
      "                      (rounded down to a power of two, default 128)\n"
      "  --rel-rto-min US    reliable: RTO clamp floor in microseconds\n"
      "  --rel-rto-max US    reliable: RTO clamp ceiling in microseconds\n"
      "  --rel-cc            reliable: enable AIMD congestion avoidance\n"
      "  --fail POS          crash the server at chain position POS mid-run\n"
      "  --fail-after SEC    when to crash it (default 0.5)\n"
      "  --pcap FILE         capture chain egress to a pcap file\n"
      "  stats | --stats     print live metric snapshots during the run and\n"
      "                      a full registry dump at the end\n"
      "  --stats-interval S  seconds between live snapshots (default 1)\n"
      "  --stats-json FILE   periodically dump the registry to FILE as JSON\n"
      "  trace | --trace     sample packets through the chain and write a\n"
      "                      Chrome trace-event JSON (load in Perfetto)\n"
      "  --trace-sample N    trace every ~Nth packet (default 64, 1 = all)\n"
      "  --trace-out FILE    trace output path (default trace.json)\n"
      "  budget | --budget   enable the hot-path budget profiler and print\n"
      "                      the per-stage ns/packet table after the run\n"
      "  --quiet-assert      arm steady-state quiet mode after warmup: any\n"
      "                      data-path allocation failure, contended lock, or\n"
      "                      send/free retry fails the run with a budget +\n"
      "                      span flight-recorder dump (implies budget)\n"
      "  --warmup SEC        warmup before the budget window starts and\n"
      "                      quiet mode arms (default 0.25)");
}

ftc::FtcNode::MboxFactory parse_mbox(const std::string& spec, bool& ok) {
  const auto colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::uint32_t arg =
      colon == std::string::npos
          ? 0
          : static_cast<std::uint32_t>(std::atoi(spec.c_str() + colon + 1));
  ok = true;
  if (name == "monitor") {
    return [arg] {
      return std::unique_ptr<mbox::Middlebox>(
          new mbox::Monitor(arg == 0 ? 1 : arg));
    };
  }
  if (name == "nat") {
    return [] { return std::unique_ptr<mbox::Middlebox>(new mbox::MazuNat()); };
  }
  if (name == "simplenat") {
    return [] {
      return std::unique_ptr<mbox::Middlebox>(new mbox::SimpleNat());
    };
  }
  if (name == "gen") {
    return [arg] {
      return std::unique_ptr<mbox::Middlebox>(
          new mbox::Gen(arg == 0 ? 32 : arg));
    };
  }
  if (name == "firewall") {
    return [] { return std::unique_ptr<mbox::Middlebox>(new mbox::Firewall()); };
  }
  if (name == "lb") {
    return [] {
      return std::unique_ptr<mbox::Middlebox>(
          new mbox::LoadBalancer({0xC0A80001, 0xC0A80002}));
    };
  }
  ok = false;
  return {};
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return false;
    } else if (arg == "--mode") {
      const char* v = next("--mode");
      if (v == nullptr) return false;
      if (std::strcmp(v, "nf") == 0) opt.mode = ftc::ChainMode::kNf;
      else if (std::strcmp(v, "ftc") == 0) opt.mode = ftc::ChainMode::kFtc;
      else if (std::strcmp(v, "ftmb") == 0) opt.mode = ftc::ChainMode::kFtmb;
      else if (std::strcmp(v, "ftmb-snapshot") == 0)
        opt.mode = ftc::ChainMode::kFtmbSnapshot;
      else {
        std::fprintf(stderr, "unknown mode %s\n", v);
        return false;
      }
    } else if (arg == "--chain") {
      const char* v = next("--chain");
      if (v == nullptr) return false;
      opt.chain.clear();
      std::stringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ',')) opt.chain.push_back(item);
    } else if (arg == "--f") {
      const char* v = next("--f");
      if (v == nullptr) return false;
      opt.f = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr) return false;
      const int threads = std::atoi(v);
      constexpr int kMaxThreads = state::ShardMap::kMaxWorkers;
      if (threads < 1 || threads > kMaxThreads) {
        std::fprintf(stderr, "--threads must be in 1..%d\n", kMaxThreads);
        usage();
        return false;
      }
      opt.threads = static_cast<std::size_t>(threads);
    } else if (arg == "--rate") {
      const char* v = next("--rate");
      if (v == nullptr) return false;
      opt.rate_pps = std::atof(v);
    } else if (arg == "--duration") {
      const char* v = next("--duration");
      if (v == nullptr) return false;
      opt.duration_s = std::atof(v);
    } else if (arg == "--flows") {
      const char* v = next("--flows");
      if (v == nullptr) return false;
      opt.flows = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--frame") {
      const char* v = next("--frame");
      if (v == nullptr) return false;
      opt.frame_len = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--burst") {
      const char* v = next("--burst");
      if (v == nullptr) return false;
      opt.burst = static_cast<std::size_t>(std::atoi(v));
      if (opt.burst == 0) opt.burst = 1;
    } else if (arg == "--loss") {
      const char* v = next("--loss");
      if (v == nullptr) return false;
      opt.loss = std::atof(v);
    } else if (arg == "--reorder") {
      const char* v = next("--reorder");
      if (v == nullptr) return false;
      opt.reorder = std::atof(v);
    } else if (arg == "--link-delay") {
      const char* v = next("--link-delay");
      if (v == nullptr) return false;
      opt.link_delay_us = std::atof(v);
    } else if (arg == "--transport") {
      const char* v = next("--transport");
      if (v == nullptr) return false;
      if (std::strcmp(v, "raw") == 0) {
        opt.transport = ftc::TransportMode::kRaw;
      } else if (std::strcmp(v, "reliable") == 0) {
        opt.transport = ftc::TransportMode::kReliable;
      } else {
        std::fprintf(stderr, "unknown transport %s\n", v);
        return false;
      }
    } else if (arg == "--rel-window") {
      const char* v = next("--rel-window");
      if (v == nullptr) return false;
      opt.rel_window = static_cast<std::uint32_t>(std::atoi(v));
    } else if (arg == "--rel-rto-min") {
      const char* v = next("--rel-rto-min");
      if (v == nullptr) return false;
      opt.rel_rto_min_us = std::atof(v);
    } else if (arg == "--rel-rto-max") {
      const char* v = next("--rel-rto-max");
      if (v == nullptr) return false;
      opt.rel_rto_max_us = std::atof(v);
    } else if (arg == "--rel-cc") {
      opt.rel_congestion = true;
    } else if (arg == "--fail") {
      const char* v = next("--fail");
      if (v == nullptr) return false;
      opt.fail_position = std::atoi(v);
    } else if (arg == "--fail-after") {
      const char* v = next("--fail-after");
      if (v == nullptr) return false;
      opt.fail_after_s = std::atof(v);
    } else if (arg == "--pcap") {
      const char* v = next("--pcap");
      if (v == nullptr) return false;
      opt.pcap_path = v;
    } else if (arg == "stats" || arg == "--stats") {
      opt.stats = true;
    } else if (arg == "--stats-interval") {
      const char* v = next("--stats-interval");
      if (v == nullptr) return false;
      opt.stats_interval_s = std::atof(v);
      if (opt.stats_interval_s <= 0) opt.stats_interval_s = 1.0;
      opt.stats = true;
    } else if (arg == "--stats-json") {
      const char* v = next("--stats-json");
      if (v == nullptr) return false;
      opt.stats_json_path = v;
    } else if (arg == "trace" || arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--trace-sample") {
      const char* v = next("--trace-sample");
      if (v == nullptr) return false;
      opt.trace_sample = static_cast<std::uint64_t>(std::atoll(v));
      if (opt.trace_sample == 0) opt.trace_sample = 1;
      opt.trace = true;
    } else if (arg == "--trace-out") {
      const char* v = next("--trace-out");
      if (v == nullptr) return false;
      opt.trace_out = v;
      opt.trace = true;
    } else if (arg == "budget" || arg == "--budget") {
      opt.budget = true;
    } else if (arg == "--quiet-assert") {
      opt.quiet_assert = true;
      opt.budget = true;
    } else if (arg == "--warmup") {
      const char* v = next("--warmup");
      if (v == nullptr) return false;
      opt.warmup_s = std::atof(v);
      if (opt.warmup_s < 0) opt.warmup_s = 0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage();
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 1;

  ftc::ChainRuntime::Spec spec;
  spec.mode = opt.mode;
  spec.cfg.f = opt.f;
  spec.cfg.threads_per_node = opt.threads;
  spec.cfg.burst_size = opt.burst;
  spec.cfg.link.loss = opt.loss;
  spec.cfg.link.reorder = opt.reorder;
  spec.cfg.link.delay_ns = static_cast<std::uint64_t>(opt.link_delay_us * 1e3);
  spec.cfg.transport = opt.transport;
  if (opt.rel_window != 0) spec.cfg.reliable.window = opt.rel_window;
  if (opt.rel_rto_min_us > 0) {
    spec.cfg.reliable.rto_min_ns =
        static_cast<std::uint64_t>(opt.rel_rto_min_us * 1e3);
  }
  if (opt.rel_rto_max_us > 0) {
    spec.cfg.reliable.rto_max_ns =
        static_cast<std::uint64_t>(opt.rel_rto_max_us * 1e3);
  }
  spec.cfg.reliable.congestion_avoidance = opt.rel_congestion;
  spec.cfg.profile = opt.budget;
  spec.cfg.quiet_assert = opt.quiet_assert;
  for (const auto& name : opt.chain) {
    bool ok = false;
    auto factory = parse_mbox(name, ok);
    if (!ok) {
      std::fprintf(stderr, "unknown middlebox '%s'\n", name.c_str());
      return 1;
    }
    spec.mbox_factories.push_back(std::move(factory));
  }
  if (opt.fail_position >= 0 && opt.mode != ftc::ChainMode::kFtc) {
    std::fprintf(stderr, "--fail requires --mode ftc\n");
    return 1;
  }

  ftc::ChainRuntime chain(spec);
  chain.start();
  orch::Orchestrator orchestrator(chain);
  if (opt.mode == ftc::ChainMode::kFtc) orchestrator.start();

  // Span tracing: sampled packets leave one record per chain event, and
  // the stats output derives its per-hop quantiles from the same records.
  // Quiet mode keeps the collector running as a flight recorder so a
  // violation can dump the events leading up to it.
  const bool spans_on = opt.trace || opt.stats || opt.quiet_assert;
  std::unique_ptr<obs::SpanCollector> spans;
  if (spans_on) spans = std::make_unique<obs::SpanCollector>(&chain.registry());

  std::printf(
      "chain: mode=%s transport=%s servers=%u f=%u threads=%zu rate=%.0f pps\n",
      ftc::to_string(opt.mode), ftc::to_string(opt.transport),
      chain.ring_size(), opt.f, opt.threads, opt.rate_pps);
  if (spans_on) {
    std::printf("trace: sampling 1 in %llu packets\n",
                static_cast<unsigned long long>(opt.trace_sample));
  }

  tgen::Workload workload;
  workload.num_flows = opt.flows;
  workload.frame_len = opt.frame_len;
  workload.burst = opt.burst;
  if (spans_on) workload.trace_sample = opt.trace_sample;
  tgen::TrafficSource source(chain.pool(), chain.ingress(), workload,
                             opt.rate_pps, spans.get());
  tgen::TrafficSink sink(chain.pool(), chain.egress(), spans.get());
  pkt::PcapWriter pcap;
  std::unique_ptr<rt::Worker> tap;
  if (!opt.pcap_path.empty()) {
    if (!pcap.open(opt.pcap_path)) {
      std::fprintf(stderr, "cannot open %s\n", opt.pcap_path.c_str());
      return 1;
    }
    // Tap between chain egress and the sink: forward + record.
    tap = std::make_unique<rt::Worker>();
    static pkt::PacketPool tap_pool(16);  // Unused; sink frees via routing.
    tap->start("pcap-tap", [&] {
      if (pkt::Packet* p = chain.egress().poll()) {
        pcap.write(*p);
        chain.pool().free_raw(p);
        return true;
      }
      return false;
    });
  } else {
    sink.start();
  }
  source.start();

  std::unique_ptr<obs::Exporter> exporter;
  if (!opt.stats_json_path.empty()) {
    exporter = std::make_unique<obs::Exporter>(
        chain.registry(), opt.stats_json_path,
        static_cast<std::uint64_t>(opt.stats_interval_s * 1e9));
  }

  const auto t0 = rt::now_ns();
  bool failed_yet = false;
  bool measuring = false;
  obs::HotProfiler* prof = chain.profiler();
  std::uint64_t next_stats_ns =
      rt::now_ns() + static_cast<std::uint64_t>(opt.stats_interval_s * 1e9);
  while (rt::now_ns() - t0 < static_cast<std::uint64_t>(opt.duration_s * 1e9)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (!measuring &&
        rt::now_ns() - t0 >= static_cast<std::uint64_t>(opt.warmup_s * 1e9)) {
      // Warmup/measure boundary: the budget window starts clean, and the
      // steady-state invariants become hard assertions from here on.
      measuring = true;
      if (prof != nullptr) {
        prof->reset();
        if (opt.quiet_assert) {
          prof->arm_quiet();
          std::printf("[%.2fs] quiet mode armed\n", (rt::now_ns() - t0) / 1e9);
        }
      }
    }
    if (opt.stats && rt::now_ns() >= next_stats_ns) {
      next_stats_ns += static_cast<std::uint64_t>(opt.stats_interval_s * 1e9);
      std::printf("--- stats @ %.2fs ---\n%s", (rt::now_ns() - t0) / 1e9,
                  obs::to_text(chain.registry()).c_str());
    }
    if (opt.fail_position >= 0 && !failed_yet &&
        rt::now_ns() - t0 >
            static_cast<std::uint64_t>(opt.fail_after_s * 1e9)) {
      std::printf("[%.2fs] crashing server at position %d\n",
                  (rt::now_ns() - t0) / 1e9, opt.fail_position);
      chain.fail_position(static_cast<std::uint32_t>(opt.fail_position));
      failed_yet = true;
    }
  }
  source.stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // The quiet window ends with the offered load: teardown churn (worker
  // joins, pool drain) is not steady-state behaviour.
  if (prof != nullptr) prof->disarm_quiet();

  std::printf("sent:      %llu packets\n",
              static_cast<unsigned long long>(source.packets_sent()));
  if (opt.pcap_path.empty()) {
    const auto lat = sink.latency();
    std::printf("delivered: %llu packets (%.3f Mpps offered)\n",
                static_cast<unsigned long long>(sink.packets_received()),
                static_cast<double>(source.packets_sent()) / opt.duration_s *
                    1e-6);
    if (lat.count() > 0) {
      std::printf("latency:   p50 %.1f us, p99 %.1f us, max %.1f us\n",
                  lat.p50() / 1000.0, lat.p99() / 1000.0, lat.max() / 1000.0);
    }
  } else {
    std::printf("captured:  %llu packets -> %s\n",
                static_cast<unsigned long long>(pcap.packets_written()),
                opt.pcap_path.c_str());
  }
  if (failed_yet) {
    const auto reports = orchestrator.reports();
    if (!reports.empty() && reports.back().success) {
      std::printf("recovery:  position %u restored in %.1f ms (init %.1f + "
                  "fetch %.1f)\n",
                  reports.back().position, reports.back().total_ns / 1e6,
                  reports.back().initialization_ns / 1e6,
                  reports.back().state_recovery_ns / 1e6);
    } else {
      std::printf("recovery:  NOT COMPLETED\n");
    }
  }

  tap.reset();
  sink.stop();
  orchestrator.stop();
  chain.stop();
  std::vector<obs::SpanRecord> records;
  if (spans) records = spans->snapshot();
  if (spans) {
    const auto hops = obs::per_hop_breakdown(records);
    if (!hops.empty()) {
      std::printf("--- per-hop latency (sampled spans) ---\n");
      std::printf("%-6s %10s %10s %10s %10s\n", "pos", "hop p50", "hop p99",
                  "proc p50", "transit p50");
      for (const auto& hop : hops) {
        std::printf("%-6u %8.1fus %8.1fus %8.1fus %9.1fus\n", hop.position,
                    hop.hop_ns.p50() / 1000.0, hop.hop_ns.p99() / 1000.0,
                    hop.process_ns.p50() / 1000.0,
                    hop.transit_ns.p50() / 1000.0);
      }
    }
    if (opt.trace) {
      if (obs::write_chrome_trace(opt.trace_out, records,
                                  chain.registry().span_site_names())) {
        std::printf("trace:     %zu spans -> %s (open in ui.perfetto.dev)\n",
                    records.size(), opt.trace_out.c_str());
      } else {
        std::fprintf(stderr, "trace:     cannot write %s\n",
                     opt.trace_out.c_str());
      }
      for (const auto& tl : obs::recovery_timelines(records)) {
        std::printf("timeline:  pos %u: detect %+.1f ms, fetch %.1f ms, "
                    "reroute %+.1f ms after failure%s\n",
                    tl.position, tl.time_to_detect_ns() / 1e6,
                    tl.time_to_fetch_ns() / 1e6, tl.time_to_reroute_ns() / 1e6,
                    tl.complete() ? "" : " (incomplete)");
      }
    }
  }
  if (exporter) {
    exporter->stop();
    std::printf("stats json: %s (%llu dumps)\n", opt.stats_json_path.c_str(),
                static_cast<unsigned long long>(exporter->dumps()));
  }
  if (opt.stats) {
    std::printf("--- final registry snapshot ---\n%s",
                obs::to_text(chain.registry()).c_str());
  }
  if (prof != nullptr && opt.budget) {
    std::printf("--- hot-path budget (post-warmup window) ---\n%s",
                obs::budget_to_text(prof->report()).c_str());
  }
  if (opt.quiet_assert) {
    if (prof == nullptr || !prof->quiet_ok()) {
      std::printf("quiet-assert: FAILED (%llu violations)\n",
                  static_cast<unsigned long long>(
                      prof == nullptr ? 0 : prof->quiet_violation_count()));
      // Flight-recorder dump: the sampled span stream leading up to the
      // violation, newest last, so the offending window is inspectable
      // without a rerun.
      const auto sites = chain.registry().span_site_names();
      const std::size_t keep = 48;
      const std::size_t first =
          records.size() > keep ? records.size() - keep : 0;
      std::printf("--- span flight recorder (last %zu of %zu records) ---\n",
                  records.size() - first, records.size());
      for (std::size_t i = first; i < records.size(); ++i) {
        const auto& r = records[i];
        const auto site = sites.find(r.site);
        std::printf("  %14llu ns  trace=%016llx  %-16s %s a=%llu\n",
                    static_cast<unsigned long long>(r.ts_ns),
                    static_cast<unsigned long long>(r.trace_id),
                    site != sites.end() ? site->second.c_str() : "?",
                    obs::to_string(r.kind),
                    static_cast<unsigned long long>(r.a));
      }
      return 2;
    }
    std::printf("quiet-assert: ok (steady state held after %.2fs warmup)\n",
                opt.warmup_s);
  }
  return 0;
}
