#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace_digest.hpp"
#include "util/rng.hpp"

namespace hbp::sim {
namespace {

TEST(SimTime, ArithmeticAndConversions) {
  const SimTime a = SimTime::seconds(1.5);
  EXPECT_EQ(a.nanos(), 1'500'000'000);
  EXPECT_DOUBLE_EQ(a.to_seconds(), 1.5);
  EXPECT_EQ((a + SimTime::millis(500)).nanos(), 2'000'000'000);
  EXPECT_EQ((a - SimTime::seconds(1)).nanos(), 500'000'000);
  EXPECT_LT(SimTime::micros(1), SimTime::millis(1));
  EXPECT_EQ((SimTime::seconds(2) * 3).nanos(), 6'000'000'000);
}

TEST(SimTime, TransmissionTime) {
  // 1000 bytes at 8 Mb/s = 1 ms.
  EXPECT_EQ(transmission_time(1000, 8e6), SimTime::millis(1));
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::seconds(3), [&] { order.push_back(3); });
  q.push(SimTime::seconds(1), [&] { order.push_back(1); });
  q.push(SimTime::seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(SimTime::seconds(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(SimTime::seconds(9), [] {});
  q.push(SimTime::seconds(4), [] {});
  EXPECT_EQ(q.next_time(), SimTime::seconds(4));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(SimTime::seconds(1), [&] { ran = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelFiredEventFails) {
  EventQueue q;
  const EventId id = q.push(SimTime::seconds(1), [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(SimTime::seconds(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelledEventsSkippedAmongLive) {
  EventQueue q;
  std::vector<int> order;
  q.push(SimTime::seconds(1), [&] { order.push_back(1); });
  const EventId id = q.push(SimTime::seconds(2), [&] { order.push_back(2); });
  q.push(SimTime::seconds(3), [&] { order.push_back(3); });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

// Reference-model property test: random interleavings of push/pop/cancel
// behave exactly like a sorted multimap model.
class EventQueueModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModelSweep, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  EventQueue q;
  // Model: (time, seq) -> id, mirroring the queue's ordering contract.
  std::vector<std::tuple<std::int64_t, std::uint64_t, EventId>> model;
  std::uint64_t seq = 0;
  std::vector<EventId> live_ids;

  for (int step = 0; step < 2000; ++step) {
    const auto op = rng.below(10);
    if (op < 5) {  // push
      const auto t = static_cast<std::int64_t>(rng.below(100));
      const EventId id = q.push(SimTime(t), [] {});
      model.emplace_back(t, seq++, id);
      live_ids.push_back(id);
    } else if (op < 8) {  // pop
      ASSERT_EQ(q.empty(), model.empty());
      if (model.empty()) continue;
      const auto best = std::min_element(model.begin(), model.end());
      const auto ev = q.pop();
      ASSERT_EQ(ev.at.nanos(), std::get<0>(*best));
      model.erase(best);
    } else {  // cancel a random (possibly stale) id
      if (live_ids.empty()) continue;
      const EventId id = live_ids[rng.below(live_ids.size())];
      const bool in_model =
          std::find_if(model.begin(), model.end(), [&](const auto& e) {
            return std::get<2>(e) == id;
          }) != model.end();
      ASSERT_EQ(q.cancel(id), in_model);
      if (in_model) {
        model.erase(std::find_if(model.begin(), model.end(), [&](const auto& e) {
          return std::get<2>(e) == id;
        }));
      }
    }
    ASSERT_EQ(q.size(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModelSweep,
                         ::testing::Values(1, 2, 3, 4));

// Twin-scheduler stress: drive the heap and a sorted reference scheduler
// with the identical randomized op sequence (pushes over a wide, clustered
// time range; random cancels of possibly stale ids; interleaved pops) and
// require the exact same pop sequence — time AND payload — from both.  The
// reference keeps its pending events sorted by (time, insertion seq), the
// ordering contract itself.  Both popped streams are also folded into a
// TraceDigest, mirroring what the simulator pins in the golden tests.
class TwinSchedulerStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwinSchedulerStress, IdenticalPopOrderAndDigest) {
  struct Pending {
    std::int64_t at_ns;
    std::uint64_t seq;
    int payload;
    bool operator<(const Pending& o) const {
      return at_ns != o.at_ns ? at_ns < o.at_ns : seq < o.seq;
    }
  };
  util::Rng rng(GetParam());
  EventQueue heap;
  std::vector<Pending> reference;  // sorted by (time, seq)

  std::vector<int> heap_payloads;
  std::vector<int> reference_payloads;
  // Every push's heap id and reference entry, live or not.
  std::vector<std::pair<EventId, Pending>> pushed;
  TraceDigest heap_digest;
  TraceDigest reference_digest;
  std::int64_t clock = 0;  // pops only move forward from here
  int next_payload = 0;
  std::uint64_t next_seq = 0;

  const auto pop_both = [&] {
    ASSERT_EQ(heap.empty(), reference.empty());
    if (heap.empty()) return;
    const Pending expected = reference.front();
    reference.erase(reference.begin());
    ASSERT_EQ(heap.next_time().nanos(), expected.at_ns);
    auto a = heap.pop();
    ASSERT_EQ(a.at.nanos(), expected.at_ns);
    a.fn();
    reference_payloads.push_back(expected.payload);
    ASSERT_EQ(heap_payloads, reference_payloads);
    heap_digest.fold_dispatch(a.at, heap_payloads.size());
    reference_digest.fold_dispatch(SimTime(expected.at_ns),
                                   reference_payloads.size());
    clock = a.at.nanos();
  };

  for (int step = 0; step < 20000; ++step) {
    const auto op = rng.below(100);
    if (op < 55) {  // push, never in the past
      // Mix of near-future clusters and far-flung outliers.
      std::int64_t t = clock;
      const auto shape = rng.below(10);
      if (shape < 6) {
        t += static_cast<std::int64_t>(rng.below(1'000'000));  // near
      } else if (shape < 9) {
        t += static_cast<std::int64_t>(rng.below(1'000'000'000));  // far
      } else {
        t += static_cast<std::int64_t>(rng.below(1'000'000'000'000));  // huge
      }
      const Pending entry{t, next_seq++, next_payload++};
      const EventId id = heap.push(
          SimTime(t), [&heap_payloads, payload = entry.payload] {
            heap_payloads.push_back(payload);
          });
      reference.insert(
          std::upper_bound(reference.begin(), reference.end(), entry), entry);
      pushed.emplace_back(id, entry);
    } else if (op < 80) {  // pop
      pop_both();
    } else {  // cancel a random (possibly stale) id
      if (pushed.empty()) continue;
      const auto& [id, entry] = pushed[rng.below(pushed.size())];
      const auto it = std::find_if(
          reference.begin(), reference.end(),
          [&](const Pending& p) { return p.seq == entry.seq; });
      ASSERT_EQ(heap.cancel(id), it != reference.end());
      if (it != reference.end()) reference.erase(it);
    }
    ASSERT_EQ(heap.size(), reference.size());
  }
  while (!heap.empty()) pop_both();
  EXPECT_TRUE(reference.empty());
  EXPECT_EQ(heap_payloads, reference_payloads);
  EXPECT_EQ(heap_digest.value(), reference_digest.value());
  EXPECT_GT(heap_payloads.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwinSchedulerStress,
                         ::testing::Values(11, 22, 33));

// Cancel churn must not let bookkeeping grow without bound: slots recycle
// through the free list instead of accumulating.
TEST(BoundedCancelState, CancelChurnStaysBounded) {
  util::Rng rng(5);
  EventQueue q;
  constexpr std::size_t kBatch = 200;
  std::vector<EventId> ids;
  for (int round = 0; round < 300; ++round) {
    ids.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      ids.push_back(q.push(
          SimTime(static_cast<std::int64_t>(rng.below(1'000'000'000))), [] {}));
    }
    // Cancel everything we just scheduled, in random order.
    while (!ids.empty()) {
      const auto idx = rng.below(ids.size());
      EXPECT_TRUE(q.cancel(ids[idx]));
      ids[idx] = ids.back();
      ids.pop_back();
    }
    ASSERT_TRUE(q.empty());
    // All slots ever needed fit the per-round peak; churn adds none.
    ASSERT_LE(q.slot_capacity(), kBatch);
  }
}

// Lifetime census of a non-trivial closure: every instance made (from
// scratch, by copy or by move) is destroyed exactly once.
struct Census {
  int made = 0;
  int copies = 0;
  int moves = 0;
  int destroyed = 0;
  int invoked = 0;
  int live() const { return made + copies + moves - destroyed; }
};

struct Counting {
  explicit Counting(Census& c) : census(&c) { ++c.made; }
  Counting(const Counting& o) noexcept : census(o.census) { ++census->copies; }
  Counting(Counting&& o) noexcept : census(o.census) { ++census->moves; }
  Counting& operator=(const Counting&) = delete;
  ~Counting() { ++census->destroyed; }
  void operator()() { ++census->invoked; }
  Census* census;
};
static_assert(Event::fits_inline<Counting>());
static_assert(!std::is_trivially_copyable_v<Counting>);

// Too large for the inline buffer: takes the heap path.
struct BigCounting : Counting {
  using Counting::Counting;
  std::array<char, 64> pad{};
};
static_assert(!Event::fits_inline<BigCounting>());

TEST(EventLifetime, BuiltInPlaceThenMovedOutOnce) {
  Census c;
  {
    EventQueue q;
    q.push(SimTime(1), Counting(c));
    // One move into the slot: the closure is built in place.
    EXPECT_EQ(c.moves, 1);
    EXPECT_EQ(c.live(), 1);
    q.pop().fn();
  }
  EXPECT_EQ(c.made, 1);
  EXPECT_EQ(c.copies, 0);
  EXPECT_EQ(c.moves, 2);  // into the slot, out at pop
  EXPECT_EQ(c.invoked, 1);
  EXPECT_EQ(c.live(), 0);
}

TEST(EventLifetime, SimulatorSchedulesWithoutExtraMoves) {
  Census c;
  {
    Simulator simulator;
    simulator.after(SimTime(5), Counting(c));
    EXPECT_EQ(c.moves, 1);
    simulator.run_all();
  }
  EXPECT_EQ(c.moves, 2);
  EXPECT_EQ(c.invoked, 1);
  EXPECT_EQ(c.live(), 0);
}

TEST(EventLifetime, CancelDestroysOnce) {
  Census c;
  EventQueue q;
  const EventId id = q.push(SimTime(1), Counting(c));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(c.invoked, 0);
  EXPECT_EQ(c.live(), 0);
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(c.live(), 0);
}

TEST(EventLifetime, SlabGrowthKeepsEveryClosure) {
  Census c;
  {
    EventQueue q;
    constexpr int kPending = 1500;
    for (int i = 0; i < kPending; ++i) q.push(SimTime(i % 97), Counting(c));
    EXPECT_GE(q.slot_capacity(), static_cast<std::size_t>(kPending));
    EXPECT_EQ(c.live(), kPending);
    // Cancel some, fire the rest; the queue dies with none pending.
    for (int i = 0; i < 100; ++i) q.cancel(static_cast<EventId>(i));
    EXPECT_EQ(c.live(), kPending - 100);
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(c.invoked, kPending - 100);
  }
  EXPECT_EQ(c.made, 1500);
  EXPECT_EQ(c.copies, 0);
  EXPECT_EQ(c.live(), 0);
}

TEST(EventLifetime, OversizedClosureTakesHeapAndIsFreed) {
  Census c;
  {
    EventQueue q;
    q.push(SimTime(1), BigCounting(c));
    q.push(SimTime(2), BigCounting(c));
    EXPECT_EQ(c.live(), 2);
    q.pop().fn();
    // A heap target moves as its pointer: one move into the allocation only.
    EXPECT_EQ(c.moves, 2);
  }  // the second is freed with the queue
  EXPECT_EQ(c.invoked, 1);
  EXPECT_EQ(c.live(), 0);
}

TEST(EventLifetime, LvalueIsCopiedAndEventIsStolen) {
  Census c;
  {
    EventQueue q;
    Event e = Counting(c);
    EXPECT_EQ(c.moves, 1);
    q.push(SimTime(1), std::move(e));
    EXPECT_FALSE(e);
    EXPECT_EQ(c.moves, 2);  // relocated into the slot once
    Counting original(c);
    q.push(SimTime(2), original);
    EXPECT_EQ(c.copies, 1);
    EXPECT_EQ(c.live(), 3);
    while (!q.empty()) q.pop().fn();
    EXPECT_EQ(c.invoked, 2);
    original();
  }
  EXPECT_EQ(c.invoked, 3);
  EXPECT_EQ(c.live(), 0);
}

TEST(EventLifetime, PacketClosureArrivesIntact) {
  struct Sink {
    std::vector<Packet> got;
  } sink;
  EventQueue q;
  constexpr int kPending = 1200;  // enough to grow the slab several times
  for (int i = 0; i < kPending; ++i) {
    Packet p;
    p.uid = 0x1000000000ULL + static_cast<std::uint64_t>(i);
    p.seq = i;
    p.ack = -i;
    p.src = static_cast<Address>(i * 3);
    p.dst = static_cast<Address>(i * 5);
    p.size_bytes = 40 + i;
    p.mark = i % 7;
    p.edge_start = i + 1;
    p.edge_end = i + 2;
    p.edge_distance = i % 11;
    p.type = PacketType::kTcpData;
    p.ttl = static_cast<std::uint8_t>(i % 250);
    p.is_attack = (i % 2) == 1;
    auto deliver = [s = &sink, p]() mutable { s->got.push_back(p); };
    static_assert(std::is_trivially_copyable_v<decltype(deliver)>);
    static_assert(Event::fits_inline<decltype(deliver)>());
    q.push(SimTime(i), std::move(deliver));
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(sink.got.size(), static_cast<std::size_t>(kPending));
  for (int i = 0; i < kPending; ++i) {
    const Packet& p = sink.got[static_cast<std::size_t>(i)];
    EXPECT_EQ(p.uid, 0x1000000000ULL + static_cast<std::uint64_t>(i));
    EXPECT_EQ(p.seq, i);
    EXPECT_EQ(p.ack, -i);
    EXPECT_EQ(p.src, static_cast<Address>(i * 3));
    EXPECT_EQ(p.dst, static_cast<Address>(i * 5));
    EXPECT_EQ(p.size_bytes, 40 + i);
    EXPECT_EQ(p.mark, i % 7);
    EXPECT_EQ(p.edge_start, i + 1);
    EXPECT_EQ(p.edge_end, i + 2);
    EXPECT_EQ(p.edge_distance, i % 11);
    EXPECT_EQ(p.type, PacketType::kTcpData);
    EXPECT_EQ(p.ttl, static_cast<std::uint8_t>(i % 250));
    EXPECT_EQ(p.is_attack, (i % 2) == 1);
  }
}

TEST(EventLifetimeDeathTest, EmptyEventIsRejectedAtPush) {
  EventQueue q;
  EXPECT_DEATH(q.push(SimTime(1), Event()), "empty event");
}

TEST(EventQueue, StressRandomOrdering) {
  util::Rng rng(77);
  EventQueue q;
  std::vector<std::int64_t> popped;
  for (int i = 0; i < 5000; ++i) {
    const auto t = static_cast<std::int64_t>(rng.below(1000));
    q.push(SimTime(t), [] {});
  }
  SimTime last = SimTime::zero();
  while (!q.empty()) {
    const auto ev = q.pop();
    EXPECT_GE(ev.at, last);
    last = ev.at;
  }
}

// --- Radix-heap edge cases ---------------------------------------------
//
// Each case below checks the pop order against the sorted (time, seq)
// reference.  With the Simulator, nothing is scheduled in the past, so the
// uncancelled events must fire exactly in ascending (time, schedule order).

struct ScheduleLog {
  std::vector<std::tuple<std::int64_t, std::uint64_t, int>> scheduled;
  std::vector<int> fired;

  void at(Simulator& simulator, std::int64_t t, int payload) {
    scheduled.emplace_back(t, scheduled.size(), payload);
    simulator.at(SimTime(t), [this, payload] { fired.push_back(payload); });
  }

  std::vector<int> expected() const {
    auto sorted = scheduled;
    std::sort(sorted.begin(), sorted.end());
    std::vector<int> out;
    for (const auto& [t, seq, payload] : sorted) out.push_back(payload);
    return out;
  }
};

// Pending (time, seq) -> payload, for driving a bare EventQueue in step
// with the reference.
class ReferenceQueue {
 public:
  EventId push(EventQueue& q, std::int64_t t, std::vector<int>& fired) {
    const int payload = next_payload_++;
    const std::pair<std::int64_t, std::uint64_t> key{t, next_seq_++};
    pending_.emplace(key, payload);
    const EventId id = q.push(
        SimTime(t), [&fired, payload] { fired.push_back(payload); });
    keys_.emplace(id, key);
    return id;
  }

  bool cancel(EventQueue& q, EventId id) {
    const auto it = keys_.find(id);
    const bool live = it != keys_.end() && pending_.erase(it->second) == 1;
    EXPECT_EQ(q.cancel(id), live);
    return live;
  }

  // Pops one event from both and checks that they agree; returns its time.
  std::int64_t pop(EventQueue& q, std::vector<int>& fired) {
    EXPECT_FALSE(pending_.empty());
    const auto front = pending_.begin();
    EXPECT_EQ(q.next_time().nanos(), front->first.first);
    auto ev = q.pop();
    EXPECT_EQ(ev.at.nanos(), front->first.first);
    ev.fn();
    EXPECT_EQ(fired.back(), front->second);
    const std::int64_t t = front->first.first;
    pending_.erase(front);
    EXPECT_EQ(q.size(), pending_.size());
    return t;
  }

  std::size_t size() const { return pending_.size(); }
  // Key of the earliest pending event.
  std::int64_t front_time() const { return pending_.begin()->first.first; }

 private:
  std::map<std::pair<std::int64_t, std::uint64_t>, int> pending_;
  std::map<EventId, std::pair<std::int64_t, std::uint64_t>> keys_;
  std::uint64_t next_seq_ = 0;
  int next_payload_ = 0;
};

// run_until(h) peeks at the first event past h; the caller then schedules
// at h itself, below the time the peek reached.
TEST(RadixHeap, ScheduleAtHorizonAfterRunUntilPeek) {
  Simulator simulator;
  ScheduleLog log;
  log.at(simulator, 100, 0);
  log.at(simulator, 150, 1);
  log.at(simulator, 200, 2);
  log.at(simulator, 150, 3);
  simulator.run_until(SimTime(120));
  ASSERT_EQ(log.fired, (std::vector<int>{0}));
  log.at(simulator, 120, 4);  // at the horizon, below the peeked 150
  log.at(simulator, 150, 5);
  log.at(simulator, 130, 6);
  log.at(simulator, 120, 7);
  simulator.run_all();
  EXPECT_EQ(log.fired, log.expected());
  EXPECT_EQ(log.fired, (std::vector<int>{0, 4, 7, 6, 1, 3, 5, 2}));
}

TEST(RadixHeap, RunUntilPeekSweep) {
  util::Rng rng(41);
  Simulator simulator;
  ScheduleLog log;
  int payload = 0;
  for (int i = 0; i < 300; ++i) {
    log.at(simulator, static_cast<std::int64_t>(rng.below(50'000'000)),
           payload++);
  }
  for (int round = 0; round < 400; ++round) {
    const std::int64_t h =
        simulator.now().nanos() + static_cast<std::int64_t>(rng.below(200'000));
    simulator.run_until(SimTime(h));
    // Some at the horizon itself, the rest anywhere ahead.
    for (int i = 0; i < 3; ++i) log.at(simulator, h, payload++);
    for (int i = 0; i < 3; ++i) {
      log.at(simulator, h + static_cast<std::int64_t>(rng.below(1'000'000)),
             payload++);
    }
  }
  simulator.run_all();
  EXPECT_EQ(log.fired.size(), log.scheduled.size());
  EXPECT_EQ(log.fired, log.expected());
}

// A bucket's minimum is kept as a lower bound; cancelling the record that
// set it must not disturb the order of the rest.
TEST(RadixHeap, CancelBucketMinimumThenPop) {
  {
    EventQueue q;
    ReferenceQueue ref;
    std::vector<int> fired;
    // 1000..1020 share bucket 10 relative to time zero; 1000 sets its min.
    const EventId min_id = ref.push(q, 1000, fired);
    ref.push(q, 1020, fired);
    ref.push(q, 1010, fired);
    ref.push(q, 1010, fired);
    ref.push(q, 5000, fired);
    ASSERT_TRUE(ref.cancel(q, min_id));
    while (ref.size() > 0) ref.pop(q, fired);
    EXPECT_TRUE(q.empty());
  }
  util::Rng rng(43);
  EventQueue q;
  ReferenceQueue ref;
  std::vector<int> fired;
  std::int64_t clock = 0;
  for (int round = 0; round < 500; ++round) {
    // A cluster a random distance ahead, its minimum pushed at a random
    // position, then the minimum cancelled before anything pops.
    const std::int64_t base =
        clock + 1 + static_cast<std::int64_t>(rng.below(1u << (1 + rng.below(30))));
    const auto n = 2 + rng.below(6);
    const auto min_at = rng.below(n);
    EventId min_id = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const EventId id = ref.push(
          q, i == min_at ? base : base + 1 + static_cast<std::int64_t>(rng.below(64)),
          fired);
      if (i == min_at) min_id = id;
    }
    ASSERT_TRUE(ref.cancel(q, min_id));
    for (auto pops = rng.below(n + 2); pops > 0 && ref.size() > 0; --pops) {
      clock = ref.pop(q, fired);
    }
  }
  while (ref.size() > 0) ref.pop(q, fired);
  EXPECT_TRUE(q.empty());
}

// Equal times scheduled from ever closer clocks enter the queue in
// different buckets (from bucket 20 down to bucket 0 itself) and must
// still fire in schedule order, interleaved with neighbours 1 ns apart.
TEST(RadixHeap, OneNanosecondTiesFromDifferentBuckets) {
  for (const std::int64_t t : {1'000'000LL, 1'048'576LL, 1'048'575LL, 7LL << 40}) {
    Simulator simulator;
    ScheduleLog log;
    log.at(simulator, t, 0);
    log.at(simulator, t + 1, 1);
    simulator.at(SimTime(t - 1000), [&] {
      log.at(simulator, t, 2);
      log.at(simulator, t - 1, 3);
    });
    simulator.at(SimTime(t - 1), [&] {
      log.at(simulator, t + 1, 4);
      log.at(simulator, t, 5);
    });
    // First of the ties to fire: adds more ties straight into bucket 0.
    simulator.at(SimTime(t), [&] {
      log.at(simulator, t, 6);
      log.at(simulator, t + 1, 7);
      log.at(simulator, t, 8);
    });
    simulator.run_all();
    EXPECT_EQ(log.fired, log.expected()) << "t=" << t;
    EXPECT_EQ(log.fired, (std::vector<int>{3, 0, 2, 5, 6, 8, 1, 4, 7}))
        << "t=" << t;
  }
}

TEST(RadixHeap, TimesStraddlePowersOfTwo) {
  util::Rng rng(47);
  for (const int bit : {32, 62}) {
    const std::int64_t edge = std::int64_t{1} << bit;
    EventQueue q;
    ReferenceQueue ref;
    std::vector<int> fired;
    std::int64_t clock = edge - 4096;
    ref.push(q, clock, fired);
    ref.push(q, SimTime::max().nanos(), fired);
    for (int step = 0; step < 4000; ++step) {
      if (rng.below(2) == 0 || ref.size() == 1) {
        // Within a few microseconds of the edge, on either side of it.
        const std::int64_t lo = std::max(clock, edge - 3000);
        const std::int64_t t = lo + static_cast<std::int64_t>(rng.below(6000));
        ref.push(q, t, fired);
      } else {
        clock = ref.pop(q, fired);
      }
    }
    EXPECT_GT(clock, edge);  // the pops crossed the edge
    while (ref.size() > 0) clock = ref.pop(q, fired);
    EXPECT_EQ(clock, SimTime::max().nanos());
  }
}

// Hold run with the fig11_flood delay mix: ~730 pending, each pop
// schedules a 10 ms delivery, an ~80 us transmission or an ~16 ms CBR
// tick, and now and then a timer is cancelled.
TEST(RadixHeap, Fig11HoldMixMatchesTwin) {
  util::Rng rng(53);
  EventQueue q;
  ReferenceQueue ref;
  std::vector<int> fired;
  std::vector<EventId> timers;
  constexpr std::size_t kPending = 730;
  while (ref.size() < kPending) {
    ref.push(q, static_cast<std::int64_t>(rng.below(16'000'000)), fired);
  }
  for (int step = 0; step < 100'000; ++step) {
    const std::int64_t now = ref.pop(q, fired);
    const auto kind = rng.below(100);
    std::int64_t delay;
    if (kind < 70) {
      delay = 10'000'000;  // link delivery
    } else if (kind < 90) {
      delay = 80'000 + static_cast<std::int64_t>(rng.below(3)) * 8;  // tx
    } else {
      delay = 16'000'000 + static_cast<std::int64_t>(rng.below(2'000));  // CBR
    }
    const EventId id = ref.push(q, now + delay, fired);
    if (kind == 99) timers.push_back(id);
    if (timers.size() > 8) {
      // Cancelled timers are replaced so the pending depth holds.
      ref.cancel(q, timers.front());
      timers.erase(timers.begin());
      ref.push(q, now + 10'000'000, fired);
    }
  }
  EXPECT_GE(ref.size(), kPending - 8);
  while (ref.size() > 0) ref.pop(q, fired);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace hbp::sim
