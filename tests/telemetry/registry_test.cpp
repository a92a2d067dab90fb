#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hbp::telemetry {
namespace {

TEST(Registry, CreateOnFirstUseReturnsSameInstrument) {
  Registry reg;
  Counter& c1 = reg.counter("a.count");
  c1.add(3);
  Counter& c2 = reg.counter("a.count");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_TRUE(reg.contains("a.count"));
  EXPECT_FALSE(reg.contains("a.missing"));
}

TEST(Registry, FindIsTypedAndNullOnMismatch) {
  Registry reg;
  reg.counter("c").add(1);
  reg.gauge("g").set(2.0);
  reg.histogram("h").record(7);
  reg.time_series("s", sim::SimTime::seconds(1))
      .record(sim::SimTime::zero(), 1.0);

  ASSERT_NE(reg.find_counter("c"), nullptr);
  EXPECT_EQ(reg.find_counter("c")->value(), 1u);
  ASSERT_NE(reg.find_gauge("g"), nullptr);
  ASSERT_NE(reg.find_histogram("h"), nullptr);
  ASSERT_NE(reg.find_time_series("s"), nullptr);

  EXPECT_EQ(reg.find_counter("g"), nullptr);
  EXPECT_EQ(reg.find_gauge("c"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
}

TEST(Registry, VisitIsNameOrderedWithOneNonNullPointer) {
  Registry reg;
  reg.gauge("b.gauge");
  reg.counter("a.count");
  reg.histogram("c.hist");

  std::vector<std::string> names;
  reg.visit([&](const std::string& name, const Counter* c, const Gauge* g,
                const Log2Histogram* h, const TimeSeries* s) {
    names.push_back(name);
    int non_null = 0;
    if (c != nullptr) ++non_null;
    if (g != nullptr) ++non_null;
    if (h != nullptr) ++non_null;
    if (s != nullptr) ++non_null;
    EXPECT_EQ(non_null, 1);
  });
  const std::vector<std::string> want{"a.count", "b.gauge", "c.hist"};
  EXPECT_EQ(names, want);
}

TEST(Registry, MergeFoldsEveryInstrumentKind) {
  Registry a;
  a.counter("n.count").add(10);
  a.gauge("n.gauge").set(1.0);
  a.histogram("n.hist").record(4);
  a.time_series("n.series", sim::SimTime::seconds(1))
      .record(sim::SimTime::millis(100), 2.0);

  Registry b;
  b.counter("n.count").add(5);
  b.counter("only_b.count").add(1);
  b.gauge("n.gauge").set(9.0);
  b.histogram("n.hist").record(16);
  b.time_series("n.series", sim::SimTime::seconds(1))
      .record(sim::SimTime::millis(200), 3.0);

  a.merge(b);
  EXPECT_EQ(a.find_counter("n.count")->value(), 15u);
  EXPECT_EQ(a.find_counter("only_b.count")->value(), 1u);
  EXPECT_DOUBLE_EQ(a.find_gauge("n.gauge")->value(), 9.0);
  EXPECT_EQ(a.find_histogram("n.hist")->count(), 2u);
  EXPECT_EQ(a.find_histogram("n.hist")->max(), 16u);
  EXPECT_DOUBLE_EQ(a.find_time_series("n.series")->bin_value(0), 5.0);
}

}  // namespace
}  // namespace hbp::telemetry
