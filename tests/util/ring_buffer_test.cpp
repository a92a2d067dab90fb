#include "util/ring_buffer.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hbp::util {
namespace {

std::vector<int> contents(const RingBuffer<int>& ring) {
  std::vector<int> out;
  ring.for_each([&out](int v) { out.push_back(v); });
  return out;
}

std::vector<int> drain(RingBuffer<int>& ring) {
  std::vector<int> out;
  while (!ring.empty()) {
    out.push_back(ring.front());
    ring.pop_front();
  }
  return out;
}

std::vector<int> iota(int from, int to) {
  std::vector<int> out;
  for (int v = from; v < to; ++v) out.push_back(v);
  return out;
}

TEST(RingBuffer, FifoAfterHeadWraps) {
  RingBuffer<int> ring;
  for (int v = 0; v < 8; ++v) ring.push_back(int{v});  // fills the first 8 slots
  for (int v = 0; v < 5; ++v) {
    EXPECT_EQ(ring.front(), v);
    ring.pop_front();
  }
  // Five more fit in the freed slots: the tail wraps past the array's end.
  for (int v = 8; v < 13; ++v) ring.push_back(int{v});
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(contents(ring), iota(5, 13));
  EXPECT_EQ(drain(ring), iota(5, 13));
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, GrowsWhileWrapped) {
  RingBuffer<int> ring;
  for (int v = 0; v < 6; ++v) ring.push_back(int{v});
  for (int v = 0; v < 4; ++v) ring.pop_front();
  // Head sits mid-array; the sixth of these pushes wraps the tail and the
  // seventh outgrows the 8 slots, so growth must unroll the wrapped span.
  for (int v = 6; v < 16; ++v) ring.push_back(int{v});
  EXPECT_EQ(ring.size(), 12u);
  EXPECT_EQ(contents(ring), iota(4, 16));
  EXPECT_EQ(drain(ring), iota(4, 16));
}

}  // namespace
}  // namespace hbp::util
