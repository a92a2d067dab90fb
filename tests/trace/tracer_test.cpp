#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace_event.hpp"
#include "telemetry/registry.hpp"

namespace hbp::trace {
namespace {

sim::TraceEvent make_event(std::uint64_t i) {
  sim::TraceEvent e;
  e.t = sim::SimTime(static_cast<std::int64_t>(i));
  e.verb = sim::TraceVerb::kEnqueue;
  e.node = static_cast<sim::NodeId>(i % 7);
  e.id = i;
  e.cause = 0;
  e.a = static_cast<std::int32_t>(i % 3);
  e.b = -1;
  return e;
}

TEST(Tracer, RecordsInOrderAcrossChunks) {
  // 10'000 events spans three 4096-event slab chunks.
  Tracer tracer;
  for (std::uint64_t i = 0; i < 10'000; ++i) tracer.record(make_event(i));

  ASSERT_EQ(tracer.size(), 10'000u);
  EXPECT_EQ(tracer.verb_count(sim::TraceVerb::kEnqueue), 10'000u);
  EXPECT_EQ(tracer.verb_count(sim::TraceVerb::kDeliver), 0u);
  for (std::uint64_t i : {0u, 4095u, 4096u, 8191u, 8192u, 9999u}) {
    EXPECT_EQ(tracer.event(i).id, i) << "slot " << i;
  }
  std::uint64_t next = 0;
  tracer.for_each([&](const sim::TraceEvent& e) { EXPECT_EQ(e.id, next++); });
  EXPECT_EQ(next, 10'000u);
}

// The ids on a dump's event lines, in order.
std::vector<std::uint64_t> dumped_ids(const std::string& out) {
  std::vector<std::uint64_t> ids;
  for (std::size_t pos = out.find(" id="); pos != std::string::npos;
       pos = out.find(" id=", pos + 1)) {
    ids.push_back(std::stoull(out.substr(pos + 4)));
  }
  return ids;
}

TEST(Tracer, DumpFlightShowsTheLast256OldestToNewest) {
  Tracer tracer;
  for (std::uint64_t i = 0; i < 300; ++i) tracer.record(make_event(i));

  std::string out;
  tracer.dump_flight(out);
  EXPECT_EQ(out.rfind("flight recorder (last 256 of 300 events):\n", 0), 0u);
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 44; i < 300; ++i) expected.push_back(i);
  EXPECT_EQ(dumped_ids(out), expected);
  // The dump is a view: the full trace is still there.
  EXPECT_EQ(tracer.size(), 300u);
}

TEST(Tracer, DumpFlightShowsEveryEventBelow256) {
  Tracer tracer;
  for (std::uint64_t i = 0; i < 3; ++i) tracer.record(make_event(i));

  std::string out;
  tracer.dump_flight(out);
  EXPECT_EQ(out.rfind("flight recorder (last 3 of 3 events):\n", 0), 0u);
  EXPECT_EQ(dumped_ids(out), (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(Tracer, AttachInstallsSimulatorSinkAndDetachRemovesIt) {
  sim::Simulator simulator;
  Tracer tracer;
  EXPECT_FALSE(tracer.attached());

  tracer.attach(simulator);
  EXPECT_TRUE(tracer.attached());

  simulator.emit(make_event(7));
  EXPECT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.event(0).id, 7u);

  std::string out;
  EXPECT_TRUE(simulator.dump_flight(out));
  EXPECT_NE(out.find("flight recorder"), std::string::npos);

  tracer.detach();
  EXPECT_FALSE(tracer.attached());
  out.clear();
  EXPECT_FALSE(simulator.dump_flight(out));
  // An emit on a detached simulator reaches no sink.
  simulator.emit(make_event(8));
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Tracer, DestructorDetachesFromTheSimulator) {
  sim::Simulator simulator;
  {
    Tracer tracer;
    tracer.attach(simulator);
    EXPECT_TRUE(tracer.attached());
  }
  std::string out;
  EXPECT_FALSE(simulator.dump_flight(out));
  // A sink left behind would now call into the destroyed tracer.
  simulator.emit(make_event(9));
}

TEST(Tracer, DumpFlightFormatsVerbAndFields) {
  Tracer tracer;
  sim::TraceEvent e;
  e.t = sim::SimTime::millis(3);
  e.verb = sim::TraceVerb::kHoneypotHit;
  e.node = 4;
  e.id = 99;
  e.cause = 99;
  e.a = 0;
  e.b = 1;
  tracer.record(e);

  std::string out;
  tracer.dump_flight(out);
  EXPECT_NE(out.find("flight recorder"), std::string::npos);
  EXPECT_NE(out.find("honeypot_hit"), std::string::npos);
  EXPECT_NE(out.find("id=99"), std::string::npos);
  EXPECT_NE(out.find("t=0.003000000s"), std::string::npos);
}

TEST(Tracer, ExportCountersRegistersRecordedAndPerVerbCounts) {
  Tracer tracer;
  for (std::uint64_t i = 0; i < 3; ++i) tracer.record(make_event(i));
  sim::TraceEvent capture = make_event(3);
  capture.verb = sim::TraceVerb::kCapture;
  tracer.record(capture);

  telemetry::Registry registry;
  tracer.export_counters(registry);
  ASSERT_NE(registry.find_counter("trace.recorded"), nullptr);
  EXPECT_EQ(registry.find_counter("trace.recorded")->value(), 4u);
  ASSERT_NE(registry.find_counter("trace.verb.enqueue"), nullptr);
  EXPECT_EQ(registry.find_counter("trace.verb.enqueue")->value(), 3u);
  ASSERT_NE(registry.find_counter("trace.verb.capture"), nullptr);
  EXPECT_EQ(registry.find_counter("trace.verb.capture")->value(), 1u);
  // Verbs that never fired are not exported.
  EXPECT_EQ(registry.find_counter("trace.verb.deliver"), nullptr);
}

TEST(TraceVerb, NamesAreUniqueAndCoverEveryVerb) {
  std::vector<std::string> names;
  for (std::size_t v = 0; v < sim::kTraceVerbCount; ++v) {
    const char* name = sim::verb_name(static_cast<sim::TraceVerb>(v));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "verb " << v << " lacks a name";
    names.emplace_back(name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

}  // namespace
}  // namespace hbp::trace
