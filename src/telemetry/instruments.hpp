// Typed instruments for the telemetry registry.
//
// All instruments are passive accumulators: recording never schedules
// events, never consumes randomness, and never touches the trace digest, so
// an instrumented run is bit-identical to an uninstrumented one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace hbp::telemetry {

// Monotonic event count (drops, messages, dispatches, ...).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Last-written scalar (occupancy, fractions, configuration echoes).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Log2-bucketed histogram over non-negative integer samples (latencies in
// ns/us, queue depths, message sizes).  Bucket 0 holds the value 0; bucket
// b >= 1 holds [2^(b-1), 2^b - 1].  Constant memory, O(1) record, exact
// count/sum/min/max plus bucket-interpolated quantile estimates.
class Log2Histogram {
 public:
  // 1 zero bucket + 64 power-of-two buckets covers all of uint64.
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
  std::uint64_t max() const { return count_ > 0 ? max_ : 0; }
  std::uint64_t bucket_count(std::size_t b) const { return buckets_[b]; }

  // Bucket index a value lands in.
  static std::size_t bucket_of(std::uint64_t v);
  // Inclusive value range [lo, hi] of a bucket.
  static std::uint64_t bucket_lo(std::size_t b);
  static std::uint64_t bucket_hi(std::size_t b);

  // Quantile estimate (q in [0, 1]) by linear interpolation inside the
  // bucket holding the q-th sample, clamped to the observed min/max.
  // Edge behavior: q outside [0, 1] is clamped, NaN is treated as 0,
  // q == 0 returns exactly min(), q == 1 returns exactly max(), and an
  // empty histogram returns 0.
  double quantile(double q) const;

  void merge(const Log2Histogram& other);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// Fixed-interval recorder over simulation time: sample (t, v) pairs are
// summed into bin floor(t / interval).  Recording is passive — the series
// is advanced by whatever events already happen, never by its own timer —
// so enabling it cannot perturb the event schedule.
class TimeSeries {
 public:
  explicit TimeSeries(sim::SimTime interval);

  void record(sim::SimTime t, double v);

  sim::SimTime interval() const { return interval_; }

  // Number of bins touched so far (trailing empty bins are not stored).
  std::size_t bin_count() const { return bins_.size(); }
  // Value of a bin; untouched bins read as 0.
  double bin_value(std::size_t b) const;
  // Dense copy padded with zeros up to max(bin_count, min_bins).
  std::vector<double> values(std::size_t min_bins = 0) const;

  void merge(const TimeSeries& other);

 private:
  sim::SimTime interval_;
  std::vector<double> bins_;
};

}  // namespace hbp::telemetry
