#include "net/queue.hpp"

#include <gtest/gtest.h>

namespace hbp::net {
namespace {

sim::Packet packet(std::int32_t bytes, std::uint64_t uid = 0) {
  sim::Packet p;
  p.size_bytes = bytes;
  p.uid = uid;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10'000);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(q.enqueue(packet(100, i)));
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->uid, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, ByteCapacityEnforced) {
  DropTailQueue q(2500);
  EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_FALSE(q.enqueue(packet(1000)));  // 3000 > 2500
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.accepted(), 2u);
  EXPECT_EQ(q.byte_length(), 2000);
  EXPECT_EQ(q.packet_length(), 2u);
  // Draining frees capacity.
  q.dequeue();
  EXPECT_TRUE(q.enqueue(packet(1000)));
}

TEST(DropTailQueue, SmallPacketFitsAfterBigRejected) {
  DropTailQueue q(1500);
  EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_FALSE(q.enqueue(packet(1000)));
  EXPECT_TRUE(q.enqueue(packet(400)));
}

TEST(DropTailQueue, CountsDroppedBytes) {
  DropTailQueue q(1000);
  EXPECT_TRUE(q.enqueue(packet(800)));
  EXPECT_FALSE(q.enqueue(packet(700)));
  EXPECT_FALSE(q.enqueue(packet(300)));
  EXPECT_TRUE(q.enqueue(packet(200)));  // fills the queue exactly
  EXPECT_EQ(q.drops(), 2u);
  EXPECT_EQ(q.dropped_bytes(), 1000u);
  EXPECT_EQ(q.accepted(), 2u);
}

TEST(DropTailQueue, TracksPeakBytes) {
  DropTailQueue q(2000);
  EXPECT_EQ(q.peak_bytes(), 0);
  EXPECT_TRUE(q.enqueue(packet(800)));
  EXPECT_TRUE(q.enqueue(packet(700)));
  EXPECT_EQ(q.peak_bytes(), 1500);
  // A rejected packet never occupied the queue: 1500 + 600 > 2000.
  EXPECT_FALSE(q.enqueue(packet(600)));
  EXPECT_EQ(q.peak_bytes(), 1500);
  // Draining keeps the high-water mark; refilling below it leaves it alone.
  q.dequeue();
  q.dequeue();
  EXPECT_EQ(q.byte_length(), 0);
  EXPECT_EQ(q.peak_bytes(), 1500);
  EXPECT_TRUE(q.enqueue(packet(1000)));
  EXPECT_EQ(q.peak_bytes(), 1500);
  EXPECT_TRUE(q.enqueue(packet(900)));
  EXPECT_EQ(q.peak_bytes(), 1900);
}

}  // namespace
}  // namespace hbp::net
