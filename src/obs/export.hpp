// Observability: JSON/text exporter for registry snapshots.
//
// Three consumers:
//  * benches build a Report (run metadata + named metrics, optionally fed
//    from a Registry snapshot) and write machine-readable BENCH_<name>.json;
//  * sfc_cli's `stats` command pretty-prints a live snapshot;
//  * the periodic Exporter worker dumps the registry to a file on an
//    interval for long-running chains.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "runtime/worker.hpp"

namespace sfc::obs {

/// Serializes a registry snapshot as a JSON object:
///   {"metrics":[{"name":..,"labels":{..},"kind":..,"value":..} |
///               {"name":..,"labels":{..},"kind":"histogram",
///                "count":..,"mean":..,"min":..,"max":..,
///                "p50":..,"p90":..,"p99":..,"p999":..}, ...]}
std::string to_json(const Registry& registry);

/// Human-readable one-metric-per-line snapshot for terminals.
std::string to_text(const Registry& registry);

/// Writes @p content atomically (tmp file + rename). Returns false and
/// leaves the target untouched on I/O failure.
bool write_file(const std::string& path, std::string_view content);

/// Periodic snapshot worker: serializes @p registry to JSON every
/// @p interval_ns and rewrites @p path. One final dump happens on stop().
class Exporter : rt::NonCopyable {
 public:
  Exporter(const Registry& registry, std::string path,
           std::uint64_t interval_ns);
  ~Exporter();

  void stop();

  std::uint64_t dumps() const noexcept;

 private:
  bool tick();

  const Registry& registry_;
  std::string path_;
  std::uint64_t interval_ns_;
  std::uint64_t next_dump_ns_{0};
  std::atomic<std::uint64_t> dumps_{0};
  rt::Worker worker_;
};

/// One bench result file. Usage:
///   obs::Report report("fig9_chain_tput");
///   report.meta("mode", "ftc").meta("chain_len", 4);
///   report.metric("throughput_pps", tput);
///   report.metric_hist("latency_ns", hist);
///   report.add_snapshot(runtime.registry());   // optional: whole registry
///   report.write();   // -> BENCH_fig9_chain_tput.json (or
///                     //    $FTC_BENCH_JSON_DIR/BENCH_....json)
class Report {
 public:
  explicit Report(std::string name);

  Report& meta(std::string_view key, std::string_view value);
  /// Without this overload a string literal would convert to bool (a
  /// standard conversion, preferred over string_view's user-defined one).
  Report& meta(std::string_view key, const char* value) {
    return meta(key, std::string_view(value));
  }
  Report& meta(std::string_view key, double value);
  Report& meta(std::string_view key, std::uint64_t value);
  Report& meta(std::string_view key, int value) {
    return meta(key, static_cast<std::uint64_t>(value));
  }
  Report& meta(std::string_view key, bool value);

  Report& metric(std::string_view name, double value, Labels labels = {});
  Report& metric_hist(std::string_view name, const rt::Histogram& hist,
                      Labels labels = {});

  /// Appends every metric in @p registry's current snapshot, with
  /// @p extra labels appended to each (e.g. the bench point identity).
  Report& add_snapshot(const Registry& registry, const Labels& extra = {});

  /// Records the bench's pass/fail shape check in the file.
  Report& shape_check(bool ok);

  std::string to_json() const;

  /// Writes BENCH_<name>.json into $FTC_BENCH_JSON_DIR (or the working
  /// directory). Returns the path written, or empty on failure.
  std::string write() const;

 private:
  struct Metric {
    std::string name;
    Labels labels;
    bool is_hist{false};
    double value{0};
    rt::Histogram hist;
  };
  struct MetaEntry {
    std::string key;
    std::string value;   ///< Pre-rendered JSON value (quoted or raw).
  };

  std::string name_;
  std::vector<MetaEntry> meta_;
  std::vector<Metric> metrics_;
  std::optional<bool> shape_ok_;
};

}  // namespace sfc::obs
