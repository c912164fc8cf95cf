// Figure 12: impact of the replication factor (f+1 = 2..5) on Ch-5
// throughput (multi-threaded Monitors) and latency (single-threaded).
//
// Paper shape: exploiting the chain structure makes higher replication
// nearly free — going from tolerating 1 to 4 failures costs ~3%
// throughput and ~8 us latency; piggyback messages grow with f but stay
// small relative to packets.
#include "common.hpp"

using namespace sfc;
using namespace sfc::bench;

int main() {
  print_header("Figure 12 — replication factor vs performance (Ch-5)",
               "f=1..4: ~3%% tput loss, ~+8 us latency");

  const std::uint32_t factors[] = {2, 3, 4, 5};  // f+1 as the paper plots.

  auto report = make_report("fig12_repl_factor");
  report.meta("chain", "ch5-monitor");
  std::printf("%-8s %12s %16s\n", "f+1", "tput (Mpps)", "latency (us)");
  double tputs[4] = {}, lats[4] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint32_t f = factors[i] - 1;
    // Throughput: pipeline metric, single-threaded stages (see Fig 9).
    {
      auto spec = base_spec(ChainMode::kFtc, ch_n(5, 1), /*threads=*/1, f);
      tgen::Workload w;
      w.num_flows = 256;
      tputs[i] = measure_pipeline_tput(spec, w, 60'000.0).pipeline_mpps;
    }
    // Latency: single-threaded at a sustainable load.
    {
      auto spec = base_spec(ChainMode::kFtc, ch_n(5, 1), /*threads=*/1, f);
      ChainRuntime chain(spec);
      chain.start();
      tgen::Workload w;
      lats[i] = measure_latency(chain, w, 20'000.0).mean_latency_us();
      chain.stop();
    }
    const obs::Labels point{{"replicas", std::to_string(factors[i])}};
    report.metric("pipeline_mpps", tputs[i], point);
    report.metric("ns_per_packet", mpps_to_ns(tputs[i]), point);
    report.metric("mean_latency_us", lats[i], point);
    std::printf("%-8u %12.3f %16.1f\n", factors[i], tputs[i], lats[i]);
  }

  const double tput_loss = 1.0 - tputs[3] / tputs[0];
  const double lat_delta = lats[3] - lats[0];
  std::printf("\nf+1=2 -> f+1=5: throughput %.0f%% loss (paper ~3%%), "
              "latency %+.1f us (paper ~+8 us)\n",
              tput_loss * 100, lat_delta);
  // Shape reproducible here: raising the replication factor from 2 to 5
  // costs far less than the (f+1)x resources dedicated-replica schemes
  // pay — each server applies f small logs in the packet's piggyback
  // message instead of hosting extra replicas. Our per-log apply is
  // costlier than the paper's in-place copy, so the margin is wider than
  // their ~3%.
  report.metric("tput_loss_f1_to_f4", tput_loss);
  report.metric("latency_delta_us_f1_to_f4", lat_delta);
  const bool ok = tputs[3] > 0 && tput_loss < 0.6;
  std::printf("shape check (tolerating 4 failures costs <60%%, not the 2.5x "
              "of dedicated replicas): %s\n",
              ok ? "yes" : "NO");
  report.shape_check(ok);
  finish_report(report);
  return ok ? 0 : 1;
}
