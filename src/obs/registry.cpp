#include "obs/registry.hpp"

#include <algorithm>

namespace sfc::obs {

Labels Registry::canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string Registry::key_of(char kind, std::string_view name,
                             const Labels& labels) {
  std::string key;
  key.reserve(name.size() + 2 + labels.size() * 16);
  key.push_back(kind);
  key.append(name);
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key.append(k);
    key.push_back('=');
    key.append(v);
  }
  return key;
}

Counter& Registry::counter(std::string_view name, Labels labels) {
  labels = canonical(std::move(labels));
  const std::string key = key_of('c', name, labels);
  LockGuard lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    return *static_cast<Counter*>(it->second);
  }
  auto& entry = counters_.emplace_back();
  entry.name = std::string(name);
  entry.labels = std::move(labels);
  index_.emplace(key, &entry.value);
  return entry.value;
}

Gauge& Registry::gauge(std::string_view name, Labels labels) {
  labels = canonical(std::move(labels));
  const std::string key = key_of('g', name, labels);
  LockGuard lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    return *static_cast<Gauge*>(it->second);
  }
  auto& entry = gauges_.emplace_back();
  entry.name = std::string(name);
  entry.labels = std::move(labels);
  index_.emplace(key, &entry.value);
  return entry.value;
}

Timer& Registry::timer(std::string_view name, Labels labels) {
  labels = canonical(std::move(labels));
  const std::string key = key_of('t', name, labels);
  LockGuard lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    return *static_cast<Timer*>(it->second);
  }
  auto& entry = timers_.emplace_back();
  entry.name = std::string(name);
  entry.labels = std::move(labels);
  index_.emplace(key, &entry.value);
  return entry.value;
}

void Registry::gauge_fn(std::string_view name, Labels labels,
                        std::function<double()> fn) {
  labels = canonical(std::move(labels));
  const std::string key = key_of('f', name, labels);
  LockGuard lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    static_cast<GaugeFnEntry*>(it->second)->fn = std::move(fn);
    return;
  }
  auto& entry = gauge_fns_.emplace_back();
  entry.name = std::string(name);
  entry.labels = std::move(labels);
  entry.fn = std::move(fn);
  index_.emplace(key, &entry);
}

void Registry::histogram_fn(std::string_view name, Labels labels,
                            std::function<rt::Histogram()> fn) {
  labels = canonical(std::move(labels));
  const std::string key = key_of('h', name, labels);
  LockGuard lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    static_cast<HistFnEntry*>(it->second)->fn = std::move(fn);
    return;
  }
  auto& entry = hist_fns_.emplace_back();
  entry.name = std::string(name);
  entry.labels = std::move(labels);
  entry.fn = std::move(fn);
  index_.emplace(key, &entry);
}

void Registry::remove_matching(std::string_view label_key,
                               std::string_view value) {
  const auto matches = [&](const Labels& labels) {
    return std::any_of(labels.begin(), labels.end(), [&](const auto& kv) {
      return kv.first == label_key && kv.second == value;
    });
  };
  LockGuard lock(mutex_);
  // Callback entries only: value metrics keep their (dead but readable)
  // final counts; callbacks into destroyed owners must go. The deque slots
  // stay allocated (stable addresses) with the callback emptied.
  for (auto& entry : gauge_fns_) {
    if (entry.fn && matches(entry.labels)) entry.fn = nullptr;
  }
  for (auto& entry : hist_fns_) {
    if (entry.fn && matches(entry.labels)) entry.fn = nullptr;
  }
}

std::vector<Sample> Registry::snapshot() const {
  LockGuard lock(mutex_);
  std::vector<Sample> out;
  out.reserve(counters_.size() + gauges_.size() + timers_.size() +
              gauge_fns_.size() + hist_fns_.size());
  for (const auto& e : counters_) {
    Sample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = Sample::Kind::kCounter;
    s.value = static_cast<double>(e.value.value());
    out.push_back(std::move(s));
  }
  for (const auto& e : gauges_) {
    Sample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = Sample::Kind::kGauge;
    s.value = static_cast<double>(e.value.value());
    out.push_back(std::move(s));
  }
  for (const auto& e : gauge_fns_) {
    if (!e.fn) continue;
    Sample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = Sample::Kind::kGauge;
    s.value = e.fn();
    out.push_back(std::move(s));
  }
  for (const auto& e : timers_) {
    Sample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = Sample::Kind::kHistogram;
    s.hist = e.value.snapshot();
    out.push_back(std::move(s));
  }
  for (const auto& e : hist_fns_) {
    if (!e.fn) continue;
    Sample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = Sample::Kind::kHistogram;
    s.hist = e.fn();
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t Registry::metric_count() const {
  LockGuard lock(mutex_);
  return counters_.size() + gauges_.size() + timers_.size() +
         gauge_fns_.size() + hist_fns_.size();
}

void Registry::reset_counters() {
  LockGuard lock(mutex_);
  for (auto& e : counters_) e.value.reset();
  for (auto& e : timers_) e.value.reset();
}

void Registry::name_span_site(std::uint32_t site, std::string name) {
  LockGuard lock(mutex_);
  site_names_[site] = std::move(name);
}

std::map<std::uint32_t, std::string> Registry::span_site_names() const {
  LockGuard lock(mutex_);
  return site_names_;
}

}  // namespace sfc::obs
