// Figure 11: CDF of per-packet latency through Ch-3 (single-threaded
// Monitors, sustainable load) for NF / FTC / FTMB.
//
// Paper shape: tight distributions; tail only moderately above the
// minimum; FTC sits between NF and FTMB, with no latency spikes (unlike
// snapshot-based systems).
#include "common.hpp"

using namespace sfc;
using namespace sfc::bench;

int main() {
  print_header("Figure 11 — per-packet latency CDF (Ch-3)",
               "FTC's tail (p99.9/p50) tighter than FTMB+Snapshot's");

  const ChainMode modes[] = {ChainMode::kNf, ChainMode::kFtc, ChainMode::kFtmb,
                             ChainMode::kFtmbSnapshot};
  const double rate_pps = 20'000.0;

  auto report = make_report("fig11_latency_cdf");
  report.meta("chain", "ch3-monitor").meta("rate_pps", rate_pps);
  std::printf("%-14s %8s %8s %8s %8s %8s   (us)\n", "system", "min", "p50",
              "p90", "p99", "p99.9");
  rt::Histogram hists[4];
  for (std::size_t mi = 0; mi < 4; ++mi) {
    auto spec = base_spec(modes[mi], ch_n(3, 1), /*threads=*/1);
    ChainRuntime chain(spec);
    chain.start();
    tgen::Workload w;
    const auto r = measure_latency(chain, w, rate_pps);
    chain.stop();
    hists[mi] = r.latency;
    report.metric_hist("latency_ns", r.latency,
                       {{"system", mode_name(modes[mi])}});
    report.metric("ns_per_op", r.latency.mean(),
                  {{"system", mode_name(modes[mi])}});
    std::printf("%-14s %8.1f %8.1f %8.1f %8.1f %8.1f\n", mode_name(modes[mi]),
                r.latency.min() / 1000.0, r.latency.p50() / 1000.0,
                r.latency.p90() / 1000.0, r.latency.p99() / 1000.0,
                r.latency.p999() / 1000.0);
  }

  // Print a compact CDF table (the figure's series) at fixed fractions.
  std::printf("\nCDF series (latency us at cumulative fraction):\n");
  std::printf("%-10s", "fraction");
  for (const auto mode : modes) std::printf(" %14s", mode_name(mode));
  std::printf("\n");
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    std::printf("%-10.3f", q);
    for (std::size_t mi = 0; mi < 4; ++mi) {
      std::printf(" %14.1f", static_cast<double>(hists[mi].quantile(q)) / 1000.0);
    }
    std::printf("\n");
  }

  // Paper's claim for this figure: FTC's distribution is tight — "packets
  // experience constant latency" with no snapshot-style spikes (§7.4),
  // while checkpointing systems show multi-ms latency spikes. Compare
  // tail/median spread.
  const double ftc_spread =
      static_cast<double>(hists[1].p999()) / std::max<double>(1, hists[1].p50());
  const double snap_spread =
      static_cast<double>(hists[3].p999()) / std::max<double>(1, hists[3].p50());
  std::printf("\ntail spread p99.9/p50: FTC %.1fx vs FTMB+Snapshot %.1fx\n",
              ftc_spread, snap_spread);
  report.metric("ftc_tail_spread", ftc_spread);
  report.metric("snapshot_tail_spread", snap_spread);
  const bool ok = ftc_spread < snap_spread;
  std::printf("shape check (FTC tail tight; snapshotting spikes): %s\n",
              ok ? "yes" : "NO");
  report.shape_check(ok);
  finish_report(report);
  return ok ? 0 : 1;
}
