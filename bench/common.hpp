// Shared helpers for the paper-reproduction benchmarks.
//
// Each bench_* binary regenerates one table or figure of the FTC paper
// (SIGCOMM'20): it builds the chains of Table 1, drives them with the
// tgen workloads, and prints the same rows/series the paper reports,
// alongside the paper's published values. Absolute numbers differ (the
// paper ran on a 12-server 40 GbE DPDK cluster; this harness runs a
// simulated cluster on one host) — the comparison targets the *shape*:
// system ordering, ratios, and trends.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/chain.hpp"
#include "mbox/firewall.hpp"
#include "obs/export.hpp"
#include "mbox/gen.hpp"
#include "mbox/monitor.hpp"
#include "mbox/nat.hpp"
#include "orch/orchestrator.hpp"
#include "tgen/traffic.hpp"

namespace sfc::bench {

using ftc::ChainMode;
using ftc::ChainRuntime;
using ftc::FtcNode;

/// Version of the BENCH_*.json layout. Bump when metric names or meta
/// keys change shape; CI validators key on it. v2 added schema_version
/// itself, ns_per_packet/ns_per_op companions, and the budget.* rows; v3
/// dropped the node.busy_cycles registry histogram.
inline constexpr std::uint64_t kBenchSchemaVersion = 3;

/// ns/packet companion of a rate in Mpps (0 when the rate is 0).
inline double mpps_to_ns(double mpps) { return mpps > 0 ? 1e3 / mpps : 0.0; }

/// Measurement window per data point. Override with FTC_BENCH_SECONDS.
inline double point_seconds() {
  if (const char* env = std::getenv("FTC_BENCH_SECONDS")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return 0.6;
}

inline double warmup_seconds() { return 0.25; }

// --- Middlebox factories (Table 1). ---

inline FtcNode::MboxFactory monitor(std::uint32_t sharing_level) {
  return [sharing_level]() -> std::unique_ptr<mbox::Middlebox> {
    return std::make_unique<mbox::Monitor>(sharing_level);
  };
}

inline FtcNode::MboxFactory mazu_nat() {
  return []() -> std::unique_ptr<mbox::Middlebox> {
    return std::make_unique<mbox::MazuNat>();
  };
}

inline FtcNode::MboxFactory simple_nat() {
  return []() -> std::unique_ptr<mbox::Middlebox> {
    return std::make_unique<mbox::SimpleNat>();
  };
}

inline FtcNode::MboxFactory gen(std::uint32_t state_size,
                                bool per_flow = false) {
  return [state_size, per_flow]() -> std::unique_ptr<mbox::Middlebox> {
    return std::make_unique<mbox::Gen>(state_size, per_flow);
  };
}

inline FtcNode::MboxFactory firewall() {
  return []() -> std::unique_ptr<mbox::Middlebox> {
    return std::make_unique<mbox::Firewall>();
  };
}

/// Chain spec with the defaults used throughout the evaluation: f=1,
/// 16 state partitions, 256 B packets (overridden per experiment).
inline ChainRuntime::Spec base_spec(ChainMode mode,
                                    std::vector<FtcNode::MboxFactory> mboxes,
                                    std::size_t threads = 1,
                                    std::uint32_t f = 1) {
  ChainRuntime::Spec spec;
  spec.mode = mode;
  spec.cfg.f = f;
  spec.cfg.threads_per_node = threads;
  spec.cfg.num_partitions = 16;
  spec.cfg.pool_packets = 4096;
  spec.mbox_factories = std::move(mboxes);
  return spec;
}

/// Ch-n of the paper's Table 1: Monitor_1 -> ... -> Monitor_n.
inline std::vector<FtcNode::MboxFactory> ch_n(std::size_t n,
                                              std::uint32_t sharing = 1) {
  std::vector<FtcNode::MboxFactory> mboxes;
  for (std::size_t i = 0; i < n; ++i) mboxes.push_back(monitor(sharing));
  return mboxes;
}

/// Ch-Rec: Firewall -> Monitor -> SimpleNAT.
inline std::vector<FtcNode::MboxFactory> ch_rec() {
  return {firewall(), monitor(1), simple_nat()};
}

/// Warmup/measurement boundary: drop warmup samples so the registry
/// snapshot in the report covers the measured window only.
inline std::function<void()> reset_at_measure(ChainRuntime& chain,
                                              obs::SpanCollector* spans =
                                                  nullptr) {
  return [&chain, spans] {
    chain.registry().reset_counters();
    if (spans != nullptr) spans->clear();
  };
}

/// Maximum-throughput measurement (paper: max sustained rate).
inline tgen::RunResult measure_tput(ChainRuntime& chain,
                                    const tgen::Workload& workload,
                                    obs::SpanCollector* spans = nullptr) {
  return tgen::run_load(chain.pool(), chain.ingress(), chain.egress(),
                        workload, /*rate_pps=*/0.0, point_seconds(),
                        warmup_seconds(), spans,
                        reset_at_measure(chain, spans));
}

/// Latency at a fixed offered load.
inline tgen::RunResult measure_latency(ChainRuntime& chain,
                                       const tgen::Workload& workload,
                                       double rate_pps,
                                       obs::SpanCollector* spans = nullptr) {
  return tgen::run_load(chain.pool(), chain.ingress(), chain.egress(),
                        workload, rate_pps, point_seconds(), warmup_seconds(),
                        spans, reset_at_measure(chain, spans));
}

inline const char* mode_name(ChainMode m) { return ftc::to_string(m); }

/// Pipeline throughput (Mpps): the rate a real one-server-per-stage
/// deployment of this chain would sustain, i.e. 1 / (busy time of the
/// slowest stage). This is the faithful throughput metric on a host that
/// timeshares all simulated servers on few cores: wall-clock Mpps there
/// measures the SUM of all stages' work, which no real chain deployment
/// pays on one machine (each middlebox has its own server in the paper's
/// testbed).
///
/// A server's cost per packet comes from the budget profiler: the median
/// of its workers' merged per-burst cost distributions (slots are named
/// "<server>-t<worker>"), poll included and send_blocking retries
/// excluded. The median is per polled op; scaling by ops per data packet
/// charges an FTMB logger for the PALs it absorbs (1 for every other
/// server).
inline double pipeline_mpps(const obs::BudgetReport& budget) {
  struct Server {
    rt::Histogram cost;
    std::uint64_t ops{0};
    std::uint64_t packets{0};
  };
  std::map<std::string, Server> servers;
  for (const auto& w : budget.workers) {
    if (w.bursts == 0) continue;
    Server& s = servers[w.worker.substr(0, w.worker.rfind("-t"))];
    s.cost.merge(w.cost);
    s.ops += w.stages[static_cast<std::size_t>(obs::ProfStage::kPoll)].ops;
    s.packets += w.packets;
  }
  double max_cycles = 0;
  for (const auto& [name, s] : servers) {
    if (s.packets == 0) continue;
    max_cycles = std::max(max_cycles, static_cast<double>(s.cost.p50()) *
                                          static_cast<double>(s.ops) /
                                          static_cast<double>(s.packets));
  }
  if (max_cycles <= 0 || budget.tsc_hz <= 0) return 0;
  const double ns_per_packet = max_cycles * 1e9 / budget.tsc_hz;
  return 1e3 / ns_per_packet;  // 1e9 / ns * 1e-6.
}

/// Builds the chain with the budget profiler on and runs it at a moderate
/// fixed rate to collect clean per-server costs (saturation would pollute
/// cycle samples with preemption), then reports pipeline throughput
/// alongside the timeshared delivered rate.
struct TputResult {
  double pipeline_mpps{0};
  double timeshared_mpps{0};
};

inline TputResult measure_pipeline_tput(ChainRuntime::Spec spec,
                                        const tgen::Workload& workload,
                                        double probe_rate_pps = 100'000.0) {
  spec.cfg.profile = true;
  ChainRuntime chain(std::move(spec));
  obs::HotProfiler* prof = chain.profiler();
  chain.start();
  TputResult out;
  const std::uint64_t t0 = rt::now_ns();
  std::uint64_t stall0 = 0;
  for (std::uint32_t pos = 0; pos < chain.ring_size(); ++pos) {
    if (auto* m = chain.ftmb_master(pos)) stall0 += m->stall_ns_total();
  }
  (void)tgen::run_load(chain.pool(), chain.ingress(), chain.egress(),
                       workload, probe_rate_pps, point_seconds(),
                       warmup_seconds(), nullptr, [prof] { prof->reset(); });
  out.pipeline_mpps = pipeline_mpps(prof->report());
  // Snapshot stalls halt the whole pipeline while any master checkpoints
  // (paper §7.4: per-middlebox snapshots pipeline-stall the chain, and
  // more snapshots are taken in a longer chain).
  std::uint64_t stall1 = 0;
  for (std::uint32_t pos = 0; pos < chain.ring_size(); ++pos) {
    if (auto* m = chain.ftmb_master(pos)) stall1 += m->stall_ns_total();
  }
  const double elapsed = static_cast<double>(rt::now_ns() - t0);
  const double availability =
      std::max(0.05, 1.0 - static_cast<double>(stall1 - stall0) / elapsed);
  out.pipeline_mpps *= availability;
  // The saturated run is not profiled.
  obs::uninstall_hot_profiler(prof);
  out.timeshared_mpps =
      measure_tput(chain, workload).delivered_mpps;  // Saturated run.
  chain.stop();
  return out;
}

/// Paced budget-attribution probe. The chain must have been built with
/// cfg.profile (and usually cfg.quiet_assert) set. Runs a NON-saturating
/// load — quiet mode asserts the absence of steady-state slow paths, and
/// deliberate over-injection makes pool exhaustion ordinary backpressure,
/// not a bug — arming quiet and zeroing the accumulators at the
/// warmup/measure boundary so the budget covers the steady window only.
/// Quiet stays armed through the measured window; read the verdict via
/// chain.profiler()->quiet_ok() and the table via ->report().
inline tgen::RunResult measure_budget(ChainRuntime& chain,
                                      const tgen::Workload& workload,
                                      double rate_pps) {
  chain.start();
  obs::HotProfiler* prof = chain.profiler();
  const bool arm = chain.spec().cfg.quiet_assert;
  const auto r = tgen::run_load(
      chain.pool(), chain.ingress(), chain.egress(), workload, rate_pps,
      point_seconds(), warmup_seconds(), nullptr, [&chain, prof, arm] {
        chain.registry().reset_counters();
        if (prof != nullptr) {
          prof->reset();
          if (arm) prof->arm_quiet();
        }
      });
  if (prof != nullptr) prof->disarm_quiet();
  chain.stop();
  return r;
}

/// Machine-readable result file seeded with the run parameters every
/// bench shares. Callers add their headline metrics + shape check, then
/// call finish_report().
inline obs::Report make_report(const char* name) {
  obs::Report report(name);
  report.meta("schema_version", kBenchSchemaVersion);
  report.meta("point_seconds", point_seconds());
  report.meta("warmup_seconds", warmup_seconds());
  return report;
}

/// Writes the report (BENCH_<name>.json, honoring $FTC_BENCH_JSON_DIR)
/// and tells the user where it went. Passing the chain's registry flushes
/// its full metric snapshot (counters, gauges, timer quantiles) into the
/// report under the "registry" label so runs carry their raw telemetry.
inline void finish_report(obs::Report& report,
                          const obs::Registry* registry = nullptr) {
  if (registry != nullptr) {
    report.add_snapshot(*registry, obs::Labels{{"source", "registry"}});
  }
  const std::string path = report.write();
  if (path.empty()) {
    std::fprintf(stderr, "warning: failed to write bench JSON report\n");
  } else {
    std::printf("results: %s\n", path.c_str());
  }
}

/// Header block every bench prints.
inline void print_header(const char* experiment, const char* paper_summary) {
  std::printf("=====================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("  paper (40GbE DPDK cluster): %s\n", paper_summary);
  std::printf("  this run: simulated multi-server chain on one host; compare\n");
  std::printf("  shapes/ratios, not absolute Mpps.\n");
  std::printf("=====================================================================\n");
}

}  // namespace sfc::bench
