// Observability: chain-wide metrics registry (tentpole of the obs layer).
//
// Components (nodes, links, control plane, buffer, orchestrator) register
// named counters/gauges/timers with identity labels instead of growing
// bespoke stats structs. The hot path touches only the returned metric
// object — a relaxed atomic increment for counters — while registration,
// lookup, and snapshotting take the registry mutex (cold path). Snapshots
// feed the JSON/text exporter (obs/export.hpp) and the `sfc_cli stats`
// command.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/mutex.hpp"
#include "runtime/common.hpp"
#include "runtime/histogram.hpp"

namespace sfc::obs {

class SpanCollector;  // obs/span.hpp

/// Metric identity labels, e.g. {{"node","3"},{"pos","1"}}. Order does not
/// matter for identity; the registry canonicalizes by sorting.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event count. Relaxed atomic: safe for concurrent writers and
/// cheap enough for the per-packet path.
class Counter : rt::NonCopyable {
 public:
  void add(std::uint64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  alignas(rt::kCacheLineSize) std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, held packets, ...).
class Gauge : rt::NonCopyable {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  alignas(rt::kCacheLineSize) std::atomic<std::int64_t> value_{0};
};

/// Duration/value distribution backed by rt::Histogram. Recording takes a
/// mutex — meant for protocol-rate events (recoveries, NACK round trips),
/// not the per-packet fast path (components keep per-thread histograms for
/// that and expose them via Registry::histogram_fn).
class Timer : rt::NonCopyable {
 public:
  void record(std::uint64_t value) noexcept {
    LockGuard lock(mutex_);
    hist_.record(value);
  }

  rt::Histogram snapshot() const {
    LockGuard lock(mutex_);
    return hist_;
  }

  void reset() noexcept {
    LockGuard lock(mutex_);
    hist_.reset();
  }

 private:
  mutable Mutex mutex_{ranks::kLeaf, "obs.timer"};
  rt::Histogram hist_ SFC_GUARDED_BY(mutex_);
};

/// One exported metric value (see Registry::snapshot).
struct Sample {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  std::string name;
  Labels labels;
  Kind kind{Kind::kCounter};
  double value{0};        ///< Counter/gauge value.
  rt::Histogram hist;     ///< Kind::kHistogram only.
};

class Registry : rt::NonCopyable {
 public:
  /// Returns the counter registered under (name, labels), creating it on
  /// first use. The reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Timer& timer(std::string_view name, Labels labels = {});

  /// Registers a gauge computed on demand at snapshot time (e.g. a queue
  /// depth owned by another struct). The callback must stay valid until
  /// the registry is destroyed or the owner is unregistered via
  /// remove_matching().
  void gauge_fn(std::string_view name, Labels labels,
                std::function<double()> fn);

  /// Registers a histogram captured on demand at snapshot time (adapter
  /// for components that keep their own rt::Histogram).
  void histogram_fn(std::string_view name, Labels labels,
                    std::function<rt::Histogram()> fn);

  /// Drops every callback metric whose labels contain (key, value) —
  /// components deregister their snapshot callbacks before dying.
  void remove_matching(std::string_view label_key, std::string_view value);

  /// Point-in-time values of every registered metric (callbacks invoked).
  std::vector<Sample> snapshot() const;

  std::size_t metric_count() const;

  /// Zeroes every registered counter and timer (gauges and callback
  /// metrics keep their owners' state). Benches call this between warmup
  /// and the measured window so reported totals cover only the window.
  void reset_counters();

  // --- Span pipeline hooks (obs/span.hpp). -------------------------------
  // The SpanCollector registers itself here so per-packet instrumentation
  // points can reach it through the registry pointer they already hold.
  // span_sink() is a raw acquire load — the single cheap step after the
  // trace-id branch on the hot path. Install/uninstall only while the
  // chain is quiescent or before traffic starts.

  void set_span_sink(SpanCollector* sink) noexcept {
    span_sink_.store(sink, std::memory_order_release);
  }
  SpanCollector* span_sink() const noexcept {
    return span_sink_.load(std::memory_order_acquire);
  }

  /// Associates a human-readable name with a span site id (one track in
  /// the Chrome trace export).
  void name_span_site(std::uint32_t site, std::string name);
  std::map<std::uint32_t, std::string> span_site_names() const;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    T value;
  };
  struct GaugeFnEntry {
    std::string name;
    Labels labels;
    std::function<double()> fn;
  };
  struct HistFnEntry {
    std::string name;
    Labels labels;
    std::function<rt::Histogram()> fn;
  };

  static std::string key_of(char kind, std::string_view name,
                            const Labels& labels);
  static Labels canonical(Labels labels);

  /// Outermost observability rank: snapshot() invokes gauge/histogram
  /// callbacks under this mutex, and those callbacks take component locks
  /// (node park state, buffer occupancy) — so no component may call back
  /// into the registry while holding its own locks.
  mutable Mutex mutex_{ranks::kObs, "obs.registry"};
  // Deques: stable addresses across growth (references escape the lock).
  std::deque<Entry<Counter>> counters_ SFC_GUARDED_BY(mutex_);
  std::deque<Entry<Gauge>> gauges_ SFC_GUARDED_BY(mutex_);
  std::deque<Entry<Timer>> timers_ SFC_GUARDED_BY(mutex_);
  std::deque<GaugeFnEntry> gauge_fns_ SFC_GUARDED_BY(mutex_);
  std::deque<HistFnEntry> hist_fns_ SFC_GUARDED_BY(mutex_);
  std::unordered_map<std::string, void*> index_ SFC_GUARDED_BY(mutex_);
  std::map<std::uint32_t, std::string> site_names_ SFC_GUARDED_BY(mutex_);
  std::atomic<SpanCollector*> span_sink_{nullptr};
};

}  // namespace sfc::obs
