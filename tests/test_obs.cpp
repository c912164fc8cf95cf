// Tests for the observability layer: metrics registry (identity, hot-path
// counters, snapshots, callback metrics) and the JSON/text/Report
// exporters.
#include <gtest/gtest.h>

#include <thread>

#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "runtime/clock.hpp"

namespace sfc::obs {
namespace {

TEST(Registry, SameNameAndLabelsReturnsSameMetric) {
  Registry registry;
  Counter& a = registry.counter("pkts", {{"node", "1"}});
  Counter& b = registry.counter("pkts", {{"node", "1"}});
  EXPECT_EQ(&a, &b);
  // Label order must not matter for identity.
  Counter& c = registry.counter("pkts", {{"node", "1"}, {"pos", "0"}});
  Counter& d = registry.counter("pkts", {{"pos", "0"}, {"node", "1"}});
  EXPECT_EQ(&c, &d);
  EXPECT_NE(&a, &c);
  // Different kinds under the same name are distinct metrics.
  registry.gauge("pkts", {{"node", "1"}});
  EXPECT_EQ(registry.metric_count(), 3u);
}

TEST(Registry, CounterSurvivesConcurrentIncrements) {
  Registry registry;
  Counter& counter = registry.counter("hits");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, SnapshotReportsAllKinds) {
  Registry registry;
  registry.counter("c", {{"id", "1"}}).add(7);
  registry.gauge("g").set(-3);
  registry.timer("t").record(1000);
  registry.gauge_fn("fn_g", {{"id", "2"}}, [] { return 42.0; });
  registry.histogram_fn("fn_h", {}, [] {
    rt::Histogram h;
    h.record(5);
    return h;
  });

  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 5u);
  bool saw_counter = false, saw_gauge = false, saw_timer = false,
       saw_fn_gauge = false, saw_fn_hist = false;
  for (const auto& s : samples) {
    if (s.name == "c") {
      saw_counter = true;
      EXPECT_EQ(s.kind, Sample::Kind::kCounter);
      EXPECT_DOUBLE_EQ(s.value, 7.0);
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels[0].first, "id");
    } else if (s.name == "g") {
      saw_gauge = true;
      EXPECT_EQ(s.kind, Sample::Kind::kGauge);
      EXPECT_DOUBLE_EQ(s.value, -3.0);
    } else if (s.name == "t") {
      saw_timer = true;
      EXPECT_EQ(s.kind, Sample::Kind::kHistogram);
      EXPECT_EQ(s.hist.count(), 1u);
    } else if (s.name == "fn_g") {
      saw_fn_gauge = true;
      EXPECT_DOUBLE_EQ(s.value, 42.0);
    } else if (s.name == "fn_h") {
      saw_fn_hist = true;
      EXPECT_EQ(s.hist.count(), 1u);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_timer && saw_fn_gauge &&
              saw_fn_hist);
}

TEST(Registry, RemoveMatchingDropsCallbacksButKeepsValues) {
  Registry registry;
  registry.counter("c", {{"node", "9"}}).inc();
  int calls = 0;
  registry.gauge_fn("depth", {{"node", "9"}}, [&calls] {
    ++calls;
    return 1.0;
  });
  registry.gauge_fn("depth", {{"node", "8"}}, [] { return 2.0; });

  registry.remove_matching("node", "9");
  const auto samples = registry.snapshot();
  // The node-9 callback is gone (would dangle after its owner died), the
  // node-8 callback and the plain counter remain.
  EXPECT_EQ(calls, 0);
  std::size_t fn_gauges = 0;
  bool counter_still_there = false;
  for (const auto& s : samples) {
    if (s.name == "depth") ++fn_gauges;
    if (s.name == "c") counter_still_there = true;
  }
  EXPECT_EQ(fn_gauges, 1u);
  EXPECT_TRUE(counter_still_there);
}

TEST(Export, JsonContainsEscapedMetrics) {
  Registry registry;
  registry.counter("pkts", {{"link", "seg\"0"}}).add(3);  // Needs escaping.

  const std::string json = to_json(registry);
  EXPECT_NE(json.find("\"pkts\""), std::string::npos);
  EXPECT_NE(json.find("seg\\\"0"), std::string::npos);
  EXPECT_EQ(json.find("\"traces\""), std::string::npos);

  const std::string text = to_text(registry);
  EXPECT_NE(text.find("pkts"), std::string::npos);
}

TEST(Export, ReportWritesBenchJson) {
  ASSERT_EQ(setenv("FTC_BENCH_JSON_DIR", testing::TempDir().c_str(), 1), 0);
  Report report("obs_selftest");
  report.meta("mode", "ftc").meta("points", 4).meta("rate", 1.5);
  report.metric("tput_mpps", 3.25, {{"system", "ftc"}});
  rt::Histogram h;
  h.record(100);
  h.record(200);
  report.metric_hist("latency_ns", h);
  report.shape_check(true);

  const std::string path = report.write();
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BENCH_obs_selftest.json"), std::string::npos);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  unsetenv("FTC_BENCH_JSON_DIR");

  EXPECT_NE(content.find("\"bench\":\"obs_selftest\""), std::string::npos);
  EXPECT_NE(content.find("\"mode\":\"ftc\""), std::string::npos);
  EXPECT_NE(content.find("\"shape_check\":true"), std::string::npos);
  EXPECT_NE(content.find("\"tput_mpps\""), std::string::npos);
  EXPECT_NE(content.find("\"p99\""), std::string::npos);
}

TEST(Registry, ResetCountersClearsCountersAndTimers) {
  Registry registry;
  registry.counter("pkts").add(10);
  registry.gauge("depth").set(5);
  registry.timer("lat_ns").record(1234);

  registry.reset_counters();

  const auto samples = registry.snapshot();
  for (const auto& s : samples) {
    if (s.name == "pkts") {
      EXPECT_EQ(s.value, 0.0);
    } else if (s.name == "depth") {
      EXPECT_EQ(s.value, 5.0);  // Gauges keep state.
    } else if (s.name == "lat_ns") {
      EXPECT_EQ(s.hist.count(), 0u);
    }
  }
  // Metrics stay registered (same addresses) after a reset.
  registry.counter("pkts").inc();
  EXPECT_EQ(registry.counter("pkts").value(), 1u);
}

TEST(Export, TextIncludesTimerQuantiles) {
  Registry registry;
  auto& t = registry.timer("lat_ns");
  for (int i = 1; i <= 1000; ++i) t.record(i * 1000);
  const std::string text = to_text(registry);
  EXPECT_NE(text.find("p50="), std::string::npos);
  EXPECT_NE(text.find("p90="), std::string::npos);
  EXPECT_NE(text.find("p99="), std::string::npos);
  EXPECT_NE(text.find("p999="), std::string::npos);
}

TEST(Export, ExporterDumpsPeriodically) {
  Registry registry;
  registry.counter("ticks").inc();
  const std::string path = testing::TempDir() + "/obs_exporter_test.json";
  {
    Exporter exporter(registry, path, /*interval_ns=*/5'000'000);
    const auto deadline = rt::now_ns() + 2'000'000'000ull;
    while (exporter.dumps() == 0 && rt::now_ns() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_GT(exporter.dumps(), 0u);
  }  // Destructor stops the worker and performs a final dump.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 12, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"ticks\""), std::string::npos);
}

}  // namespace
}  // namespace sfc::obs
