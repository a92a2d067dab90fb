#include "telemetry/report.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/sha256.hpp"

namespace hbp::telemetry {
namespace {

void fill_registry(Registry& reg) {
  reg.counter("net.drops").add(12);
  reg.gauge("pushback.sessions").set(2.0);
  reg.histogram("net.queue.depth").record(100);
  reg.time_series("scenario.goodput", sim::SimTime::seconds(1))
      .record(sim::SimTime::millis(500), 1000.0);
}

RunManifest make_manifest() {
  RunManifest m;
  m.name = "unit";
  m.seed = 7;
  m.trace_digest = 0xdeadbeef;
  m.events_executed = 1234;
  m.sim_seconds = 100.0;
  m.set("scheme", "hbp");
  m.set_int("leaves", 300);
  m.set_double("rate", 0.5);
  m.set_bool("progressive", true);
  return m;
}

TEST(RunReport, StructureAndSchema) {
  Registry reg;
  fill_registry(reg);
  PerfStats perf;
  perf.wall_seconds = 1.0;
  perf.events_executed = 1234;
  const std::string out = render_run_report(make_manifest(), &reg, &perf);
  EXPECT_NE(out.find("\"schema\": \"hbp-run-report/1\""), std::string::npos);
  EXPECT_NE(out.find("\"trace_digest\": \"0x00000000deadbeef\""),
            std::string::npos);
  EXPECT_NE(out.find("\"scheme\": \"hbp\""), std::string::npos);
  EXPECT_NE(out.find("\"leaves\": 300"), std::string::npos);
  EXPECT_NE(out.find("\"progressive\": true"), std::string::npos);
  EXPECT_NE(out.find("\"net.drops\""), std::string::npos);
  EXPECT_NE(out.find("\"type\": \"time_series\""), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

TEST(RunReport, PerfIsLastKeyAndOptional) {
  Registry reg;
  fill_registry(reg);
  PerfStats perf;
  perf.wall_seconds = 0.25;
  const std::string with_perf = render_run_report(make_manifest(), &reg, &perf);
  const auto perf_pos = with_perf.find("\"perf\":");
  ASSERT_NE(perf_pos, std::string::npos);
  // Nothing after "perf" but its own object: no other top-level key follows.
  EXPECT_EQ(with_perf.find("\"metrics\":", perf_pos), std::string::npos);
  // The host's SHA-256 kernel is host-dependent, so it sits inside "perf".
  const auto kernel_pos = with_perf.find("\"sha256_kernel\": \"");
  ASSERT_NE(kernel_pos, std::string::npos);
  EXPECT_GT(kernel_pos, perf_pos);

  const std::string without = render_run_report(make_manifest(), &reg, nullptr);
  EXPECT_EQ(without.find("\"perf\":"), std::string::npos);
  EXPECT_EQ(without.find("sha256_kernel"), std::string::npos);
  // Truncating at `"perf":` and dropping the separator (",\n  ") leaves the
  // perf-less report minus its closing brace — the two documents share their
  // entire deterministic prefix.
  std::string prefix = with_perf.substr(0, perf_pos);
  while (!prefix.empty() &&
         (prefix.back() == ' ' || prefix.back() == '\n' ||
          prefix.back() == ',')) {
    prefix.pop_back();
  }
  EXPECT_EQ(prefix, without.substr(0, prefix.size()));
}

TEST(RunReport, DeterministicAcrossRenders) {
  // Host-dependent fields only enter through PerfStats; two renders of the
  // same data (and two registries built the same way) are byte-identical.
  Registry a;
  Registry b;
  fill_registry(a);
  fill_registry(b);
  EXPECT_EQ(render_run_report(make_manifest(), &a, nullptr),
            render_run_report(make_manifest(), &b, nullptr));
}

TEST(BenchRecord, SchemaCountersAndPerfTail) {
  std::vector<BenchCounter> counters{{"capture_s", 12.5}, {"throughput", 0.8}};
  Registry reg;
  fill_registry(reg);
  PerfStats perf;
  perf.wall_seconds = 2.0;
  perf.events_executed = 1000;
  perf.sim_seconds = 10.0;
  const std::string out = render_bench_record("fig8", counters, &reg, perf);
  EXPECT_NE(out.find("\"schema\": \"hbp-bench/1\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"fig8\""), std::string::npos);
  EXPECT_NE(out.find("\"capture_s\": 12.5"), std::string::npos);
  EXPECT_NE(out.find("\"events_per_sec\": 500"), std::string::npos);
  EXPECT_NE(out.find("\"wall_per_sim_second\": 0.2"), std::string::npos);
  const auto perf_pos = out.find("\"perf\":");
  ASSERT_NE(perf_pos, std::string::npos);
  // Counters and metrics precede perf; perf is the trailing object.
  EXPECT_LT(out.find("\"counters\":"), perf_pos);
  EXPECT_LT(out.find("\"metrics\":"), perf_pos);
  const auto kernel_pos = out.find("\"sha256_kernel\": \"" +
                                  std::string(util::sha256_kernel()) + "\"");
  ASSERT_NE(kernel_pos, std::string::npos);
  EXPECT_GT(kernel_pos, perf_pos);
}

TEST(BenchRecord, ProfiledEventTypesAppearUnderPerf) {
  PerfStats perf;
  perf.wall_seconds = 1.0;
  perf.peak_queue_depth = 42;
  perf.event_types.push_back({"packet_arrival", 10, 1000});
  const std::string out = render_bench_record("x", {}, nullptr, perf);
  EXPECT_NE(out.find("\"peak_event_queue_depth\": 42"), std::string::npos);
  EXPECT_NE(out.find("\"packet_arrival\""), std::string::npos);
}

TEST(TimeseriesCsv, LongFormat) {
  Registry reg;
  reg.time_series("a.series", sim::SimTime::seconds(2))
      .record(sim::SimTime::seconds(3), 5.0);
  reg.counter("ignored.counter").add(1);
  const std::string csv = render_timeseries_csv(reg);
  EXPECT_EQ(csv,
            "series,bin_start_seconds,value\n"
            "a.series,0,0\n"
            "a.series,2,5\n");
}

}  // namespace
}  // namespace hbp::telemetry
