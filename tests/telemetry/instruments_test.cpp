#include "telemetry/instruments.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace hbp::telemetry {
namespace {

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Log2Histogram, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Log2Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Log2Histogram::bucket_of(std::uint64_t{1} << 62), 63u);
  EXPECT_EQ(Log2Histogram::bucket_of(std::uint64_t{1} << 63), 64u);
  EXPECT_EQ(Log2Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64u);

  for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
    EXPECT_EQ(Log2Histogram::bucket_of(Log2Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Log2Histogram::bucket_of(Log2Histogram::bucket_hi(b)), b);
  }
  EXPECT_EQ(Log2Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_hi(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_hi(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_lo(64), std::uint64_t{1} << 63);
  EXPECT_EQ(Log2Histogram::bucket_hi(64),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Log2Histogram, Empty) {
  const Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Log2Histogram, RecordsStats) {
  Log2Histogram h;
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(100);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  EXPECT_DOUBLE_EQ(h.mean(), 26.5);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // 5 in [4, 7]
  EXPECT_EQ(h.bucket_count(7), 1u);  // 100 in [64, 127]
}

TEST(Log2Histogram, OverflowBucketHoldsMaxValues) {
  Log2Histogram h;
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  h.record(top);
  h.record(top);
  EXPECT_EQ(h.bucket_count(Log2Histogram::kBuckets - 1), 2u);
  EXPECT_EQ(h.max(), top);
  // Quantiles stay clamped to the observed range even in the top bucket.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), static_cast<double>(top));
}

TEST(Log2Histogram, QuantilesClampedAndMonotone) {
  Log2Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  const double p50 = h.quantile(0.5);
  const double p90 = h.quantile(0.9);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(h.quantile(0.0), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.quantile(1.0));
  // Bucket interpolation is coarse but the median of 1..1000 must land
  // inside the bucket [512, 1000-ish]; loosely: within a factor of 2.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
}

TEST(Log2Histogram, QuantileEdgeBehavior) {
  Log2Histogram h;
  // All-zero samples: bucket 0 is degenerate ([0, 0]), so every quantile
  // must be exactly 0 — interpolation has no width to spread over.
  h.record(0);
  h.record(0);
  h.record(0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);

  // q outside [0, 1] clamps to the endpoints; NaN reads as q = 0.
  h.record(200);
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 200.0);
  EXPECT_DOUBLE_EQ(h.quantile(std::numeric_limits<double>::quiet_NaN()), 0.0);

  // The endpoints report the exact tracked extremes, not the bucket edges:
  // 200 sits in bucket [128, 255] but q = 1 must return 200 exactly.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 200.0);

  // Same at the low end: min 150 is strictly inside its bucket's range.
  Log2Histogram g;
  g.record(150);
  g.record(151);
  g.record(152);
  EXPECT_DOUBLE_EQ(g.quantile(0.0), 150.0);
  EXPECT_DOUBLE_EQ(g.quantile(1.0), 152.0);
}

TEST(Log2Histogram, QuantileOverflowBucketStaysFinite) {
  // Samples in the overflow bucket [2^63, 2^64 - 1] must interpolate with
  // finite arithmetic and clamp to the observed extremes.
  Log2Histogram h;
  const std::uint64_t lo = std::uint64_t{1} << 63;
  const std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
  h.record(lo);
  h.record(hi);
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_TRUE(std::isfinite(v)) << "q=" << q;
    EXPECT_GE(v, static_cast<double>(lo)) << "q=" << q;
    EXPECT_LE(v, static_cast<double>(hi)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.0), static_cast<double>(lo));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), static_cast<double>(hi));
}

TEST(Log2Histogram, QuantileSingleSample) {
  Log2Histogram h;
  h.record(37);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 37.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 37.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 37.0);
}

TEST(Log2Histogram, Merge) {
  Log2Histogram a;
  Log2Histogram b;
  a.record(1);
  a.record(8);
  b.record(0);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.sum(), 1009.0);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_EQ(a.bucket_count(0), 1u);
  EXPECT_EQ(a.bucket_count(1), 1u);
  EXPECT_EQ(a.bucket_count(4), 1u);
  EXPECT_EQ(a.bucket_count(10), 1u);  // 1000 in [512, 1023]

  // Merging an empty histogram is a no-op, including min/max.
  const Log2Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 0u);

  // Merging into an empty histogram copies min/max instead of min-ing
  // against the 0 default.
  Log2Histogram c;
  Log2Histogram d;
  d.record(16);
  c.merge(d);
  EXPECT_EQ(c.min(), 16u);
  EXPECT_EQ(c.max(), 16u);
}

TEST(TimeSeries, SumMode) {
  TimeSeries s(sim::SimTime::seconds(1));
  s.record(sim::SimTime::millis(100), 10.0);
  s.record(sim::SimTime::millis(900), 5.0);
  s.record(sim::SimTime::millis(2500), 7.0);
  EXPECT_EQ(s.bin_count(), 3u);
  EXPECT_DOUBLE_EQ(s.bin_value(0), 15.0);
  EXPECT_DOUBLE_EQ(s.bin_value(1), 0.0);  // untouched
  EXPECT_DOUBLE_EQ(s.bin_value(2), 7.0);
  EXPECT_DOUBLE_EQ(s.bin_value(99), 0.0);  // out of range
}

TEST(TimeSeries, BinBoundaryIsHalfOpen) {
  TimeSeries s(sim::SimTime::seconds(1));
  s.record(sim::SimTime::seconds(1), 1.0);  // exactly t = 1 s -> bin 1
  EXPECT_DOUBLE_EQ(s.bin_value(0), 0.0);
  EXPECT_DOUBLE_EQ(s.bin_value(1), 1.0);
}

TEST(TimeSeries, ValuesPadsWithZeros) {
  TimeSeries s(sim::SimTime::seconds(1));
  s.record(sim::SimTime::millis(1500), 4.0);
  const auto dense = s.values(5);
  ASSERT_EQ(dense.size(), 5u);
  EXPECT_DOUBLE_EQ(dense[0], 0.0);
  EXPECT_DOUBLE_EQ(dense[1], 4.0);
  EXPECT_DOUBLE_EQ(dense[4], 0.0);
}

TEST(TimeSeries, Merge) {
  TimeSeries a(sim::SimTime::seconds(1));
  TimeSeries b(sim::SimTime::seconds(1));
  a.record(sim::SimTime::millis(500), 1.0);
  b.record(sim::SimTime::millis(600), 2.0);
  b.record(sim::SimTime::millis(3500), 4.0);
  a.merge(b);
  EXPECT_EQ(a.bin_count(), 4u);
  EXPECT_DOUBLE_EQ(a.bin_value(0), 3.0);
  EXPECT_DOUBLE_EQ(a.bin_value(3), 4.0);
}

}  // namespace
}  // namespace hbp::telemetry
