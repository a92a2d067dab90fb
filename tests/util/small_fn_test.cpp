#include "util/small_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <type_traits>
#include <utility>

#include "sim/event.hpp"
#include "sim/packet.hpp"

namespace hbp::util {
namespace {

using sim::Event;

// The converting constructor takes callables only, never another SmallFn:
// wrapping one would nest a whole SmallFn (usually on the heap) per move.
struct DerivedFn : Event {
  using Event::Event;
};
static_assert(is_small_fn_v<Event>);
static_assert(is_small_fn_v<const SmallFn<8>&>);
static_assert(is_small_fn_v<DerivedFn>);
static_assert(!std::is_constructible_v<Event, SmallFn<64>>);
static_assert(!std::is_constructible_v<Event, SmallFn<64>&&>);
static_assert(!std::is_constructible_v<SmallFn<64>, Event>);
// A derived type binds to the noexcept move constructor (a slicing move of
// its Event part), not to the converting constructor, which may allocate.
static_assert(std::is_nothrow_constructible_v<Event, DerivedFn&&>);
static_assert(!std::is_constructible_v<Event, DerivedFn&>);  // move-only

TEST(SmallFn, DerivedTypeMovesItsTarget) {
  int calls = 0;
  DerivedFn derived([&calls] { ++calls; });
  Event e = std::move(derived);
  EXPECT_FALSE(derived);
  e();
  EXPECT_EQ(calls, 1);
}

// A pointer plus a Packet: trivially copyable, so it relocates by memcpy.
struct PacketSink {
  sim::Packet got;
};

TEST(SmallFn, TrivialTargetSurvivesMoves) {
  PacketSink sink;
  sim::Packet p;
  p.uid = 0x0123456789abcdefULL;
  p.seq = 7;
  p.ack = -8;
  p.src = 9;
  p.dst = 10;
  auto fn = [s = &sink, p] { s->got = p; };
  static_assert(std::is_trivially_copyable_v<decltype(fn)>);
  static_assert(Event::fits_inline<decltype(fn)>());
  Event a = fn;
  Event b = std::move(a);
  Event c;
  c = std::move(b);
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  c();
  EXPECT_EQ(sink.got.uid, p.uid);
  EXPECT_EQ(sink.got.seq, 7);
  EXPECT_EQ(sink.got.ack, -8);
  EXPECT_EQ(sink.got.src, 9u);
  EXPECT_EQ(sink.got.dst, 10u);
}

TEST(SmallFn, HeapTargetMovesAsPointer) {
  std::array<char, 80> big{};
  big[79] = 'z';
  char seen = 0;
  auto fn = [big, &seen] { seen = big[79]; };
  static_assert(!Event::fits_inline<decltype(fn)>());
  Event a = fn;
  Event b = std::move(a);
  EXPECT_FALSE(a);
  b();
  EXPECT_EQ(seen, 'z');
}

TEST(SmallFn, EmplaceReplacesTarget) {
  int first = 0;
  int second = 0;
  Event e = [&first] { ++first; };
  e.emplace([&second] { ++second; });
  e();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  Event other = [&first] { ++first; };
  e.emplace(std::move(other));  // an Event is moved in whole
  EXPECT_FALSE(other);
  e();
  EXPECT_EQ(first, 1);
}

}  // namespace
}  // namespace hbp::util
