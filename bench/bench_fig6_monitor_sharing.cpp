// Figure 6: Monitor throughput (8 threads) vs sharing level, for NF / FTC
// / FTMB.
//
// Paper shape: throughput of every system drops as the sharing level
// rises (contention on the shared counter); FTC achieves 1.2-1.4x FTMB at
// sharing 8/2 and matches NF at sharing 1 (both NIC-bound); FTMB is
// limited by per-packet PAL messages.
#include "common.hpp"

using namespace sfc;
using namespace sfc::bench;

int main() {
  print_header(
      "Figure 6 — Monitor throughput vs sharing level (8 threads)",
      "all systems drop with sharing; FTC 1.2-1.4x FTMB; FTMB capped by PALs");

  const std::uint32_t sharing_levels[] = {1, 2, 4, 8};
  const ChainMode modes[] = {ChainMode::kNf, ChainMode::kFtc, ChainMode::kFtmb};

  double results[3][4] = {};
  auto report = make_report("fig6_monitor_sharing");
  report.meta("middlebox", "monitor").meta("threads", 8);
  std::printf("pipeline throughput = 1/(slowest server stage); see DESIGN.md\n");
  std::printf("%-14s", "system");
  for (auto s : sharing_levels) std::printf("  share=%u", s);
  std::printf("   (pipeline Mpps)\n");

  for (std::size_t mi = 0; mi < 3; ++mi) {
    std::printf("%-14s", mode_name(modes[mi]));
    for (std::size_t si = 0; si < 4; ++si) {
      auto spec = base_spec(modes[mi], {monitor(sharing_levels[si])},
                            /*threads=*/8);
      tgen::Workload w;
      w.num_flows = 256;
      const auto r = measure_pipeline_tput(spec, w);
      results[mi][si] = r.pipeline_mpps;
      const obs::Labels point{{"system", mode_name(modes[mi])},
                              {"sharing", std::to_string(sharing_levels[si])}};
      report.metric("pipeline_mpps", r.pipeline_mpps, point);
      report.metric("ns_per_packet", mpps_to_ns(r.pipeline_mpps), point);
      std::printf("  %7.3f", r.pipeline_mpps);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf("\nFTC/FTMB ratio per sharing level (paper: 1.2-1.4x):");
  for (std::size_t si = 0; si < 4; ++si) {
    const double ratio = results[2][si] > 0 ? results[1][si] / results[2][si] : 0;
    std::printf(" %.2f", ratio);
  }
  std::printf("\nFTC/NF overhead per sharing level (paper: 9-26%%):");
  for (std::size_t si = 0; si < 4; ++si) {
    std::printf(" %.0f%%", (1.0 - results[1][si] / results[0][si]) * 100.0);
  }
  // Reproducible on this substrate: sharing costs FTC throughput (its
  // shared-counter writes serialize transactions AND their replication),
  // while stateless-ish NF barely moves. Eight threads timesharing one
  // core make the contended medians noisy; compare share=1 vs share=8.
  const bool ok = results[1][3] < results[1][0] &&
                  results[0][3] > results[0][0] * 0.5;
  std::printf("\nshape check (sharing level degrades FTC; NF roughly "
              "flat): %s\n",
              ok ? "yes" : "NO");
  std::printf("note: with 8 worker threads timesharing one core, lock-wait "
              "time pollutes per-stage cost\nsamples; the FTC-vs-FTMB "
              "margin is not reproducible here (see EXPERIMENTS.md).\n");
  report.shape_check(ok);
  finish_report(report);
  return ok ? 0 : 1;
}
