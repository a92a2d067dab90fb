#include "telemetry/instruments.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/assert.hpp"

namespace hbp::telemetry {

std::size_t Log2Histogram::bucket_of(std::uint64_t v) {
  // 0 -> 0; otherwise 1 + floor(log2 v), i.e. the bit width.
  return static_cast<std::size_t>(std::bit_width(v));
}

std::uint64_t Log2Histogram::bucket_lo(std::size_t b) {
  HBP_ASSERT(b < kBuckets);
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

std::uint64_t Log2Histogram::bucket_hi(std::size_t b) {
  HBP_ASSERT(b < kBuckets);
  if (b == 0) return 0;
  if (b == kBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

void Log2Histogram::record(std::uint64_t v) {
  ++buckets_[bucket_of(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += static_cast<double>(v);
}

double Log2Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (std::isnan(q)) return static_cast<double>(min_);  // clamp() keeps NaN
  q = std::clamp(q, 0.0, 1.0);
  // Exact endpoints: within-bucket interpolation can place q=0 above the
  // recorded minimum (or q=1 below the maximum) because a bucket's
  // population is assumed uniform over [lo, hi]; the extremes are tracked
  // exactly, so report them exactly.
  if (q == 0.0) return static_cast<double>(min_);
  if (q == 1.0) return static_cast<double>(max_);
  // Rank of the target sample, 1-based.
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets_[b];
    if (rank <= static_cast<double>(seen)) {
      const double lo = static_cast<double>(bucket_lo(b));
      const double hi = static_cast<double>(bucket_hi(b));
      const double inside = (rank - before) / static_cast<double>(buckets_[b]);
      const double v = lo + (hi - lo) * inside;
      return std::clamp(v, static_cast<double>(min_), static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

void Log2Histogram::merge(const Log2Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
}

TimeSeries::TimeSeries(sim::SimTime interval) : interval_(interval) {
  HBP_ASSERT(interval > sim::SimTime::zero());
}

void TimeSeries::record(sim::SimTime t, double v) {
  HBP_ASSERT(t >= sim::SimTime::zero());
  const auto b = static_cast<std::size_t>(t.nanos() / interval_.nanos());
  if (bins_.size() <= b) bins_.resize(b + 1, 0.0);
  bins_[b] += v;
}

double TimeSeries::bin_value(std::size_t b) const {
  return b < bins_.size() ? bins_[b] : 0.0;
}

std::vector<double> TimeSeries::values(std::size_t min_bins) const {
  std::vector<double> out(bins_);
  if (out.size() < min_bins) out.resize(min_bins, 0.0);
  return out;
}

void TimeSeries::merge(const TimeSeries& other) {
  HBP_ASSERT(interval_ == other.interval_);
  if (bins_.size() < other.bins_.size()) bins_.resize(other.bins_.size(), 0.0);
  for (std::size_t b = 0; b < other.bins_.size(); ++b) bins_[b] += other.bins_[b];
}

}  // namespace hbp::telemetry
