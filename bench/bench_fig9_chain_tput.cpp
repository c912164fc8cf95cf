// Figure 9: maximum chain throughput vs chain length (Ch-2 .. Ch-5,
// Monitors with sharing level 1, 8 threads) for NF / FTC / FTMB /
// FTMB+Snapshot.
//
// Paper shape: FTC throughput is largely independent of chain length
// (2-7% drop from Ch-2 to Ch-5, within 6-13% of NF); FTMB is roughly
// half of FTC; FTMB+Snapshot degrades sharply with chain length
// (13-39% drop, 3.94 -> 2.42 Mpps) because per-middlebox snapshot stalls
// pipeline the whole chain.
#include "common.hpp"

using namespace sfc;
using namespace sfc::bench;

int main() {
  print_header("Figure 9 — throughput vs chain length (Ch-2..Ch-5)",
               "FTC flat (8.28-8.92), FTMB ~half (4.80-4.83), "
               "FTMB+Snapshot 3.94->2.42 Mpps");

  // CI budget-gate hook: skip the mode/length grid and burst sweep, run
  // only the profiled Ch-3 FTC budget probe below.
  const bool budget_only = std::getenv("FTC_FIG9_BUDGET_ONLY") != nullptr;

  const std::size_t lengths[] = {2, 3, 4, 5};
  const ChainMode modes[] = {ChainMode::kNf, ChainMode::kFtc, ChainMode::kFtmb,
                             ChainMode::kFtmbSnapshot};
  // Threads per node: the paper uses 8 (on 8 real cores per server). This
  // harness timeshares every simulated server on one host, where extra
  // threads only add scheduler noise to the per-stage cost samples, so the
  // chain-length axis is measured single-threaded (the thread axis is
  // Figure 7's).
  const std::size_t threads = 1;

  double results[4][4] = {};
  auto report = make_report("fig9_chain_tput");
  report.meta("middlebox", "monitor").meta("threads",
                                           static_cast<std::uint64_t>(threads));
  std::printf("pipeline throughput = 1/(slowest server stage); see DESIGN.md\n");
  std::printf("%-16s", "system");
  for (auto n : lengths) std::printf("   Ch-%zu ", n);
  std::printf("  (pipeline Mpps)\n");

  bool ok = true;
  if (!budget_only) {
  for (std::size_t mi = 0; mi < 4; ++mi) {
    std::printf("%-16s", mode_name(modes[mi]));
    for (std::size_t li = 0; li < 4; ++li) {
      auto spec = base_spec(modes[mi], ch_n(lengths[li], 1), threads);
      tgen::Workload w;
      w.num_flows = 256;
      const auto r = measure_pipeline_tput(spec, w, 60'000.0);
      results[mi][li] = r.pipeline_mpps;
      const obs::Labels point{{"system", mode_name(modes[mi])},
                              {"chain_len", std::to_string(lengths[li])}};
      report.metric("pipeline_mpps", r.pipeline_mpps, point);
      report.metric("ns_per_packet", mpps_to_ns(r.pipeline_mpps), point);
      std::printf("  %6.3f", r.pipeline_mpps);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  // Burst-size sweep on the no-loss Ch-3 FTC chain at data-path burst
  // sizes 1/8/32/128 (burst 1 is the pre-batching per-packet path; 32 is
  // the default everywhere else). Unlike the grid above, this probes near
  // the timeshared saturation rate: a lightly paced probe releases one
  // packet per credit, so queues stay empty and every poll returns a
  // single packet regardless of burst_size — batching only engages under
  // backlog. Far above saturation is wrong too: on a host timesharing all
  // simulated servers, overload grows the egress buffer's held list and
  // pollutes the cycle samples with scan work that a provisioned
  // deployment would not pay.
  const std::size_t bursts[] = {1, 8, 32, 128};
  double burst_mpps[4] = {};
  std::printf("\n%-16s", "FTC Ch-3 burst");
  for (auto b : bursts) std::printf("   b=%-3zu", b);
  std::printf("\n%-16s", "");
  for (std::size_t bi = 0; bi < 4; ++bi) {
    auto spec = base_spec(ChainMode::kFtc, ch_n(3, 1), threads);
    spec.cfg.burst_size = bursts[bi];
    tgen::Workload w;
    w.num_flows = 256;
    w.burst = bursts[bi];
    const auto r = measure_pipeline_tput(spec, w, 200'000.0);
    burst_mpps[bi] = r.pipeline_mpps;
    const obs::Labels point{{"system", "FTC"},
                            {"chain_len", "3"},
                            {"burst", std::to_string(bursts[bi])}};
    report.metric("timeshared_mpps", r.timeshared_mpps, point);
    report.metric("pipeline_mpps", r.pipeline_mpps, point);
    report.metric("ns_per_packet", mpps_to_ns(r.pipeline_mpps), point);
    std::printf("  %6.3f", r.pipeline_mpps);
    std::fflush(stdout);
  }
  const double burst_speedup =
      burst_mpps[0] > 0 ? burst_mpps[2] / burst_mpps[0] : 0.0;
  std::printf("\nburst-32 / burst-1 speedup: %.2fx\n", burst_speedup);
  report.metric("burst32_over_burst1_speedup", burst_speedup);

  const double ftc_drop = 1.0 - results[1][3] / results[1][0];
  const double snap_drop = 1.0 - results[3][3] / results[3][0];
  std::printf("\nFTC drop Ch-2 -> Ch-5: %.0f%% (paper: 2-7%%)\n", ftc_drop * 100);
  std::printf("FTMB+Snapshot drop Ch-2 -> Ch-5: %.0f%% (paper: 13-39%%)\n",
              snap_drop * 100);
  std::printf("FTC/FTMB at Ch-5: %.2fx (paper: ~1.7-1.9x here, 2-3.5x "
              "across the eval)\n",
              results[2][3] > 0 ? results[1][3] / results[2][3] : 0);

  report.metric("ftc_drop_ch2_to_ch5", ftc_drop);
  report.metric("snapshot_drop_ch2_to_ch5", snap_drop);
  ok = results[1][3] > results[3][3] &&  // FTC beats +Snapshot.
       snap_drop > ftc_drop + 0.10;      // Snapshot scales far worse.
  std::printf("shape check (FTC nearly flat with chain length while "
              "FTMB+Snapshot collapses; FTC > FTMB+Snapshot at Ch-5): %s\n",
              ok ? "yes" : "NO");
  std::printf("known gap: FTC > plain FTMB does NOT reproduce on this "
              "substrate — our in-memory links\n"
              "underprice FTMB's per-packet PAL messages (the paper's FTMB "
              "was NIC-capped at 5.26 Mpps),\n"
              "and even with zero-copy piggyback processing the per-hop "
              "apply+replicate work exceeds the paper's 58+100 cycles "
              "(Table 2).\n"
              "See EXPERIMENTS.md for the full analysis.\n");
  }  // !budget_only

  // --- Live budget attribution probe (obs/prof). ------------------------
  // Ch-3 FTC at the default burst (32), profiled over a paced steady
  // window with quiet mode armed after warmup: the per-stage ns/packet
  // table lands in this report (budget.* registry rows + headline
  // metrics), and any steady-state slow path (allocation, contended lock,
  // blocking-send retry) fails the probe. CI's budget-gate job runs this
  // with FTC_FIG9_BUDGET_ONLY=1 and diffs budget_total_ns_per_packet
  // against the committed baseline.
  {
    auto spec = base_spec(ChainMode::kFtc, ch_n(3, 1), threads);
    spec.cfg.profile = true;
    spec.cfg.quiet_assert = true;
    ChainRuntime chain(spec);
    tgen::Workload w;
    w.num_flows = 256;
    const auto r = measure_budget(chain, w, 100'000.0);
    obs::HotProfiler* prof = chain.profiler();
    const auto budget = prof->report();
    std::printf("\n%s", obs::budget_to_text(budget).c_str());

    double total_ns = 0.0;
    for (const auto& row : budget.total.stages) {
      if (obs::prof_stage_primary(row.stage)) total_ns += row.ns_per_packet;
    }
    const bool quiet_ok = prof->quiet_ok();
    const obs::Labels point{{"system", "FTC"}, {"chain_len", "3"},
                            {"probe", "budget"}};
    report.metric("budget_total_ns_per_packet", total_ns, point);
    report.metric("budget_reconciliation", budget.total.reconciliation,
                  point);
    report.metric("budget_quiet_ok", quiet_ok ? 1.0 : 0.0, point);
    report.metric("ns_per_packet", mpps_to_ns(r.delivered_mpps), point);
    report.add_snapshot(chain.registry(),
                        obs::Labels{{"source", "registry"},
                                    {"probe", "budget"}});
    std::printf("budget probe: total=%.1f ns/pkt reconciliation=%.1f%% "
                "quiet=%s\n",
                total_ns, budget.total.reconciliation * 100.0,
                quiet_ok ? "ok" : "VIOLATED");
    if (budget_only) {
      ok = quiet_ok && budget.total.reconciliation >= 0.9 && total_ns > 0;
    }
  }

  report.shape_check(ok);
  finish_report(report);
  return ok ? 0 : 1;
}
