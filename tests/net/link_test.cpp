// Link-level behaviour: serialization ordering with mixed packet sizes,
// delivery counters, and queue interaction.
#include "net/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/host.hpp"
#include "net/network.hpp"

namespace hbp::net {
namespace {

struct LinkFixture : public ::testing::Test {
  void SetUp() override {
    a = &network.add_node<Host>("a");
    b = &network.add_node<Host>("b");
    LinkParams link;
    link.capacity_bps = 8e6;  // 1 ms per 1000 B
    link.delay = sim::SimTime::millis(2);
    network.connect(a->id(), b->id(), link);
    a->set_address(network.assign_address(a->id()));
    b->set_address(network.assign_address(b->id()));
    network.compute_routes();
  }

  void send(std::int32_t bytes, std::uint64_t tag) {
    sim::Packet p;
    p.dst = b->address();
    p.size_bytes = bytes;
    p.seq = tag;  // the receiver reads the tag back
    a->send(std::move(p));
  }

  sim::Simulator simulator;
  Network network{simulator};
  Host* a = nullptr;
  Host* b = nullptr;
};

TEST_F(LinkFixture, MixedSizesStayFifo) {
  std::vector<std::int64_t> order;
  auto on_packet = [&](const sim::Packet& p) { order.push_back(p.seq); };
  b->set_receiver(on_packet);
  send(4000, 1);
  send(100, 2);
  send(2000, 3);
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(order, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST_F(LinkFixture, SerializationTimesScaleWithSize) {
  std::vector<double> arrivals;
  auto on_packet = [&](const sim::Packet&) {
    arrivals.push_back(simulator.now().to_seconds());
  };
  b->set_receiver(on_packet);
  send(4000, 1);  // 4 ms serialization
  send(1000, 2);  // +1 ms behind it
  simulator.run_until(sim::SimTime::seconds(1));
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.006, 1e-9);  // 4 ms tx + 2 ms prop
  EXPECT_NEAR(arrivals[1], 0.007, 1e-9);  // queued behind, 1 ms more
}

TEST_F(LinkFixture, DeliveredCountersAdvance) {
  auto on_packet = [](const sim::Packet&) {};
  b->set_receiver(on_packet);
  send(1000, 1);
  send(500, 2);
  simulator.run_until(sim::SimTime::seconds(1));
  auto& link = network.link(a->id(), 0);
  EXPECT_EQ(link.packets_delivered(), 2u);
  EXPECT_EQ(link.bytes_delivered(), 1500u);
  EXPECT_DOUBLE_EQ(link.capacity_bps(), 8e6);
  EXPECT_EQ(link.delay(), sim::SimTime::millis(2));
}

TEST_F(LinkFixture, IdleLinkRestartsCleanly) {
  std::vector<double> arrivals;
  auto on_packet = [&](const sim::Packet&) {
    arrivals.push_back(simulator.now().to_seconds());
  };
  b->set_receiver(on_packet);
  send(1000, 1);
  simulator.run_until(sim::SimTime::seconds(5));
  send(1000, 2);  // after a long idle gap, timing restarts from now
  simulator.run_until(sim::SimTime::seconds(10));
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[1] - 5.0, 0.003, 1e-9);
}

}  // namespace
}  // namespace hbp::net
