#include "sim/trace_digest.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/trace_event.hpp"
#include "trace/tracer.hpp"

namespace hbp::sim {
namespace {

TEST(TraceDigest, FreshDigestsAgree) {
  TraceDigest a, b;
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.records(), 0u);
}

TEST(TraceDigest, FoldChangesValueAndCountsRecords) {
  TraceDigest d;
  const std::uint64_t empty = d.value();
  d.fold_record(SimTime::millis(3), 2, 7, 42);
  EXPECT_NE(d.value(), empty);
  // fold_record() absorbs three words: time, code^node, uid.
  EXPECT_EQ(d.records(), 3u);
}

TEST(TraceDigest, SameSequenceSameValue) {
  TraceDigest a, b;
  for (int i = 0; i < 100; ++i) {
    const TraceEvent e{SimTime::millis(i), TraceVerb::kDeliver, i % 5,
                       static_cast<std::uint64_t>(i), 0};
    a.fold(e);
    b.fold(e);
  }
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.records(), b.records());
}

TEST(TraceDigest, OrderSensitive) {
  TraceDigest ab, ba;
  ab.fold_dispatch(SimTime::millis(1), 1);
  ab.fold_dispatch(SimTime::millis(2), 2);
  ba.fold_dispatch(SimTime::millis(2), 2);
  ba.fold_dispatch(SimTime::millis(1), 1);
  EXPECT_NE(ab.value(), ba.value());
}

TEST(TraceDigest, DiscriminatesEveryField) {
  auto one = [](SimTime t, std::uint32_t code, NodeId n, std::uint64_t uid) {
    TraceDigest d;
    d.fold_record(t, code, n, uid);
    return d.value();
  };
  const std::uint64_t base = one(SimTime::millis(1), 2, 3, 9);
  EXPECT_NE(base, one(SimTime::millis(2), 2, 3, 9));
  EXPECT_NE(base, one(SimTime::millis(1), 3, 3, 9));
  EXPECT_NE(base, one(SimTime::millis(1), 2, 4, 9));
  EXPECT_NE(base, one(SimTime::millis(1), 2, 3, 10));
}

TEST(TraceDigest, ResetRestoresInitialState) {
  TraceDigest d;
  const std::uint64_t empty = d.value();
  d.fold_record(SimTime::seconds(1), 4, 2, 5);
  d.reset();
  EXPECT_EQ(d.value(), empty);
  EXPECT_EQ(d.records(), 0u);
}

// Pins the digest recipe verb by verb: emit() on a fresh Simulator must fold
// exactly the records written out here with the frozen codes (2 transmit,
// 3 deliver, 4 queue drop, 5 TTL drop, 6 filter drop), and nothing for every
// other verb — with or without a trace sink attached.
TEST(TraceDigest, EmitFoldsTheRecipeForEveryVerb) {
  const SimTime t = SimTime::millis(5);
  const NodeId node = 3;
  const NodeId to_node = 9;
  const std::uint64_t id = 77;
  for (std::size_t v = 0; v < kTraceVerbCount; ++v) {
    const auto verb = static_cast<TraceVerb>(v);
    SCOPED_TRACE(verb_name(verb));
    const TraceEvent e{t, verb, node, id, /*cause=*/11, to_node, /*b=*/4};

    TraceDigest expected;
    switch (verb) {
      case TraceVerb::kEnqueue:
        expected.fold_record(t, 2, node, id);
        break;
      case TraceVerb::kQueueDrop:
        expected.fold_record(t, 2, node, id);
        expected.fold_record(t, 4, to_node, id);
        break;
      case TraceVerb::kDeliver:
        expected.fold_record(t, 3, node, id);
        break;
      case TraceVerb::kTtlDrop:
        expected.fold_record(t, 5, node, id);
        break;
      case TraceVerb::kFilterDrop:
        expected.fold_record(t, 6, node, id);
        break;
      default:
        break;
    }

    Simulator bare;
    bare.emit(e);
    EXPECT_EQ(bare.trace().value(), expected.value());
    EXPECT_EQ(bare.trace().records(), expected.records());

    Simulator traced;
    trace::Tracer tracer;
    tracer.attach(traced);
    traced.emit(e);
    EXPECT_EQ(tracer.size(), 1u);
    EXPECT_EQ(traced.trace().value(), bare.trace().value());
    EXPECT_EQ(traced.trace().records(), bare.trace().records());
  }
}

TEST(TraceDigest, SimulatorFoldsEveryDispatchedEvent) {
  struct Run {
    std::uint64_t digest;
    std::uint64_t records;
    std::uint64_t executed;
  };
  auto run = [](int events) {
    Simulator s;
    for (int i = 0; i < events; ++i) {
      s.at(SimTime::millis(i), [] {});
    }
    s.run_all();
    return Run{s.trace().value(), s.trace().records(), s.events_executed()};
  };
  const Run a = run(5);
  const Run b = run(5);
  EXPECT_EQ(a.digest, b.digest);
  // Each dispatched event folds one record triple.
  EXPECT_EQ(a.records, 3u * a.executed);

  const Run c = run(6);
  EXPECT_NE(a.digest, c.digest);
}

TEST(TraceDigest, SimulatorNextEventTime) {
  Simulator s;
  EXPECT_FALSE(s.next_event_time().has_value());
  s.at(SimTime::millis(7), [] {});
  s.at(SimTime::millis(3), [] {});
  ASSERT_TRUE(s.next_event_time().has_value());
  EXPECT_EQ(*s.next_event_time(), SimTime::millis(3));
  s.run_all();
  EXPECT_FALSE(s.next_event_time().has_value());
}

}  // namespace
}  // namespace hbp::sim
