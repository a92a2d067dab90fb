// Streaming statistics and frequency counts for experiment metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>

namespace hbp::util {

// Welford's online algorithm: numerically stable mean/variance.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  // Half-width of the 95% confidence interval (normal approximation).
  double ci95_halfwidth() const;

  // Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exact integer-valued frequency counter (for degree/hop-count histograms).
class IntCounter {
 public:
  void add(std::int64_t v) { ++counts_[v]; ++total_; }
  std::uint64_t total() const { return total_; }
  const std::map<std::int64_t, std::uint64_t>& counts() const { return counts_; }
  double frequency(std::int64_t v) const;
  double mean() const;

 private:
  std::map<std::int64_t, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace hbp::util
