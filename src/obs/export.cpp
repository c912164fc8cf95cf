#include "obs/export.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "runtime/clock.hpp"

namespace sfc::obs {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

void append_number(std::string& out, double v) {
  // Integral values print without a fraction so counters stay exact.
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 &&
      v < 1e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

void append_labels(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    append_quoted(out, k);
    out += ':';
    append_quoted(out, v);
  }
  out += '}';
}

void append_hist_fields(std::string& out, const rt::Histogram& h) {
  out += "\"count\":" + std::to_string(h.count());
  out += ",\"mean\":";
  append_number(out, h.mean());
  out += ",\"min\":" + std::to_string(h.min());
  out += ",\"max\":" + std::to_string(h.max());
  out += ",\"p50\":" + std::to_string(h.p50());
  out += ",\"p90\":" + std::to_string(h.p90());
  out += ",\"p99\":" + std::to_string(h.p99());
  out += ",\"p999\":" + std::to_string(h.p999());
}

const char* kind_name(Sample::Kind k) {
  switch (k) {
    case Sample::Kind::kCounter: return "counter";
    case Sample::Kind::kGauge: return "gauge";
    case Sample::Kind::kHistogram: return "histogram";
  }
  return "?";
}

void append_sample(std::string& out, const Sample& s) {
  out += "{\"name\":";
  append_quoted(out, s.name);
  out += ",\"labels\":";
  append_labels(out, s.labels);
  out += ",\"kind\":\"";
  out += kind_name(s.kind);
  out += '"';
  if (s.kind == Sample::Kind::kHistogram) {
    out += ',';
    append_hist_fields(out, s.hist);
  } else {
    out += ",\"value\":";
    append_number(out, s.value);
  }
  out += '}';
}

std::string labels_text(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

}  // namespace

std::string to_json(const Registry& registry) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& s : registry.snapshot()) {
    if (!first) out += ',';
    first = false;
    append_sample(out, s);
  }
  out += "]}";
  return out;
}

std::string to_text(const Registry& registry) {
  std::string out;
  for (const auto& s : registry.snapshot()) {
    out += s.name;
    const std::string lt = labels_text(s.labels);
    if (!lt.empty()) {
      out += '{';
      out += lt;
      out += '}';
    }
    out += " = ";
    if (s.kind == Sample::Kind::kHistogram) {
      char buf[200];
      std::snprintf(
          buf, sizeof(buf),
          "count=%llu mean=%.1f p50=%llu p90=%llu p99=%llu p999=%llu max=%llu",
          static_cast<unsigned long long>(s.hist.count()), s.hist.mean(),
          static_cast<unsigned long long>(s.hist.p50()),
          static_cast<unsigned long long>(s.hist.p90()),
          static_cast<unsigned long long>(s.hist.p99()),
          static_cast<unsigned long long>(s.hist.p999()),
          static_cast<unsigned long long>(s.hist.max()));
      out += buf;
    } else {
      append_number(out, s.value);
    }
    out += '\n';
  }
  return out;
}

bool write_file(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

Exporter::Exporter(const Registry& registry, std::string path,
                   std::uint64_t interval_ns)
    : registry_(registry),
      path_(std::move(path)),
      interval_ns_(interval_ns),
      next_dump_ns_(rt::now_ns() + interval_ns) {
  worker_.start("obs-exporter", [this] { return tick(); });
}

Exporter::~Exporter() { stop(); }

void Exporter::stop() {
  if (!worker_.running()) return;
  worker_.stop();
  // Final dump so the file reflects end-of-run state.
  if (write_file(path_, to_json(registry_))) {
    dumps_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t Exporter::dumps() const noexcept {
  return dumps_.load(std::memory_order_relaxed);
}

bool Exporter::tick() {
  if (rt::now_ns() < next_dump_ns_) return false;
  next_dump_ns_ += interval_ns_;
  if (write_file(path_, to_json(registry_))) {
    dumps_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

Report::Report(std::string name) : name_(std::move(name)) {}

Report& Report::meta(std::string_view key, std::string_view value) {
  std::string rendered;
  append_quoted(rendered, value);
  meta_.push_back(MetaEntry{std::string(key), std::move(rendered)});
  return *this;
}

Report& Report::meta(std::string_view key, double value) {
  std::string rendered;
  append_number(rendered, value);
  meta_.push_back(MetaEntry{std::string(key), std::move(rendered)});
  return *this;
}

Report& Report::meta(std::string_view key, std::uint64_t value) {
  meta_.push_back(MetaEntry{std::string(key), std::to_string(value)});
  return *this;
}

Report& Report::meta(std::string_view key, bool value) {
  meta_.push_back(MetaEntry{std::string(key), value ? "true" : "false"});
  return *this;
}

Report& Report::metric(std::string_view name, double value, Labels labels) {
  Metric m;
  m.name = std::string(name);
  m.labels = std::move(labels);
  m.value = value;
  metrics_.push_back(std::move(m));
  return *this;
}

Report& Report::metric_hist(std::string_view name, const rt::Histogram& hist,
                            Labels labels) {
  Metric m;
  m.name = std::string(name);
  m.labels = std::move(labels);
  m.is_hist = true;
  m.hist = hist;
  metrics_.push_back(std::move(m));
  return *this;
}

Report& Report::add_snapshot(const Registry& registry, const Labels& extra) {
  for (const auto& s : registry.snapshot()) {
    Labels labels = s.labels;
    labels.insert(labels.end(), extra.begin(), extra.end());
    if (s.kind == Sample::Kind::kHistogram) {
      metric_hist(s.name, s.hist, std::move(labels));
    } else {
      metric(s.name, s.value, std::move(labels));
    }
  }
  return *this;
}

Report& Report::shape_check(bool ok) {
  shape_ok_ = ok;
  return *this;
}

std::string Report::to_json() const {
  std::string out = "{\"bench\":";
  append_quoted(out, name_);
  out += ",\"generated_ns\":" + std::to_string(rt::now_ns());
  if (shape_ok_.has_value()) {
    out += ",\"shape_check\":";
    out += *shape_ok_ ? "true" : "false";
  }
  out += ",\"meta\":{";
  bool first = true;
  for (const auto& m : meta_) {
    if (!first) out += ',';
    first = false;
    append_quoted(out, m.key);
    out += ':';
    out += m.value;
  }
  out += "},\"metrics\":[";
  first = true;
  for (const auto& m : metrics_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_quoted(out, m.name);
    out += ",\"labels\":";
    append_labels(out, m.labels);
    if (m.is_hist) {
      out += ",\"kind\":\"histogram\",";
      append_hist_fields(out, m.hist);
    } else {
      out += ",\"kind\":\"value\",\"value\":";
      append_number(out, m.value);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string Report::write() const {
  std::string path = "BENCH_" + name_ + ".json";
  if (const char* dir = std::getenv("FTC_BENCH_JSON_DIR");
      dir != nullptr && dir[0] != '\0') {
    path = std::string(dir) + "/" + path;
  }
  if (!write_file(path, to_json() + "\n")) return {};
  return path;
}

}  // namespace sfc::obs
