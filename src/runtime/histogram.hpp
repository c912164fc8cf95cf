// Log-linear latency histogram (HDR-histogram style).
//
// Values below 64 are bucketed exactly; above that, each power-of-two
// octave is split into 32 linear sub-buckets (~3% relative precision).
// That is plenty for microsecond-to-second latency distributions and lets
// the recorder run at line rate (one increment, no allocation).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sfc::rt {

class Histogram {
 public:
  Histogram();

  /// Records one value (e.g. nanoseconds).
  void record(std::uint64_t value) noexcept;

  /// Records @p count occurrences of @p value.
  void record_n(std::uint64_t value, std::uint64_t count) noexcept;

  /// Merges another histogram into this one (used to combine per-thread
  /// recorders after a run).
  void merge(const Histogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Value at quantile q in [0,1] (e.g. 0.5, 0.99). Returns an upper bound
  /// of the bucket containing the quantile, clamped to the observed max.
  std::uint64_t quantile(double q) const noexcept;

  std::uint64_t p50() const noexcept { return quantile(0.50); }
  std::uint64_t p90() const noexcept { return quantile(0.90); }
  std::uint64_t p99() const noexcept { return quantile(0.99); }
  std::uint64_t p999() const noexcept { return quantile(0.999); }

  void reset() noexcept;

  /// CDF sampling: returns (value, cumulative_fraction) pairs for all
  /// non-empty buckets — exactly what Figure 11 plots.
  std::vector<std::pair<std::uint64_t, double>> cdf() const;

  /// The bucketing, exposed so other recorders (the budget profiler's
  /// lock-free per-worker cost distribution) share it: bucket_index of a
  /// bucket's upper bound is that bucket, so record_n(bucket_upper_bound(i),
  /// n) rebuilds bucket i exactly.
  static std::size_t bucket_index(std::uint64_t value) noexcept;
  static std::uint64_t bucket_upper_bound(std::size_t index) noexcept;

 private:
  friend class AtomicHistogram;

  // 64 exact buckets, then 58 octaves x 32 sub-buckets.
  static constexpr std::size_t kExactBuckets = 64;
  static constexpr std::size_t kSubBuckets = 32;
  static constexpr int kFirstOctave = 6;  // values >= 2^6 use octave buckets.
  static constexpr std::size_t kNumBuckets =
      kExactBuckets + (64 - kFirstOctave) * kSubBuckets;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_{0};
  std::uint64_t sum_{0};
  std::uint64_t min_{~0ULL};
  std::uint64_t max_{0};
};

/// Multi-writer Histogram recorder for the data path: record() is a few
/// relaxed atomic updates (no lock), snapshot() rebuilds the Histogram a
/// locked recorder would hold. A snapshot racing writers may count a
/// sample in one field before another; it never reads a torn value.
class AtomicHistogram {
 public:
  /// Records @p count occurrences of @p value, one update per field.
  void record_n(std::uint64_t value, std::uint64_t count) noexcept;
  Histogram snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, Histogram::kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ULL};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace sfc::rt
