#include "net/network.hpp"

#include <gtest/gtest.h>

#include "net/host.hpp"
#include "net/router.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"

namespace hbp::net {
namespace {

struct TwoHostsFixture : public ::testing::Test {
  // host_a -- router -- host_b, 8 Mb/s, 1 ms per link.
  void SetUp() override {
    router = &network.add_node<Router>("r");
    a = &network.add_node<Host>("a");
    b = &network.add_node<Host>("b");
    LinkParams link;
    link.capacity_bps = 8e6;
    link.delay = sim::SimTime::millis(1);
    network.connect(a->id(), router->id(), link);
    network.connect(router->id(), b->id(), link);
    a->set_address(network.assign_address(a->id()));
    b->set_address(network.assign_address(b->id()));
    network.compute_routes();
  }

  sim::Packet make_packet(sim::Address dst, std::int32_t bytes = 1000) {
    sim::Packet p;
    p.dst = dst;
    p.size_bytes = bytes;
    return p;
  }

  sim::Simulator simulator;
  Network network{simulator};
  Router* router = nullptr;
  Host* a = nullptr;
  Host* b = nullptr;
};

TEST_F(TwoHostsFixture, EndToEndDelivery) {
  int received = 0;
  auto on_packet = [&](const sim::Packet&) { ++received; };
  b->set_receiver(on_packet);
  a->send(make_packet(b->address()));
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(b->packets_received(), 1u);
  EXPECT_EQ(b->bytes_received(), 1000u);
}

TEST_F(TwoHostsFixture, DeliveryTimingExact) {
  // 1000 B at 8 Mb/s = 1 ms serialization + 1 ms propagation per link,
  // two links => 4 ms.
  sim::SimTime arrival = sim::SimTime::zero();
  auto on_packet = [&](const sim::Packet&) { arrival = simulator.now(); };
  b->set_receiver(on_packet);
  a->send(make_packet(b->address()));
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(arrival, sim::SimTime::millis(4));
}

TEST_F(TwoHostsFixture, SerializationQueuesBackToBack) {
  // Two packets sent at t=0: the second waits 1 ms behind the first at the
  // host's uplink, arriving 1 ms later.
  std::vector<sim::SimTime> arrivals;
  auto on_packet = [&](const sim::Packet&) { arrivals.push_back(simulator.now()); };
  b->set_receiver(on_packet);
  a->send(make_packet(b->address()));
  a->send(make_packet(b->address()));
  simulator.run_until(sim::SimTime::seconds(1));
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], sim::SimTime::millis(1));
}

TEST_F(TwoHostsFixture, TtlExpiryDropsPacket) {
  int received = 0;
  auto on_packet = [&](const sim::Packet&) { ++received; };
  b->set_receiver(on_packet);
  sim::Packet p = make_packet(b->address());
  p.ttl = 0;
  a->send(std::move(p));
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.counters().dropped_ttl, 1u);
}

TEST_F(TwoHostsFixture, MisdeliveredPacketIgnoredByHost) {
  // dst = a's address sent by a itself: router returns it to a? No — route
  // to a goes back out port 0; a receives own packet. Send to an address
  // that belongs to nobody else: host b must ignore packets not addressed
  // to it.
  int received = 0;
  auto on_packet = [&](const sim::Packet&) { ++received; };
  b->set_receiver(on_packet);
  a->send(make_packet(a->address()));  // loops back to a, not b
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(received, 0);
}

TEST_F(TwoHostsFixture, HopDistance) {
  EXPECT_EQ(network.hop_distance(a->id(), b->address()), 2);
  EXPECT_EQ(network.hop_distance(router->id(), b->address()), 1);
  EXPECT_EQ(network.hop_distance(b->id(), b->address()), 0);
}

TEST_F(TwoHostsFixture, CountersConserve) {
  auto on_packet = [](const sim::Packet&) {};
  b->set_receiver(on_packet);
  for (int i = 0; i < 10; ++i) a->send(make_packet(b->address()));
  simulator.run_until(sim::SimTime::seconds(1));
  const auto& c = network.counters();
  // Every transmission is eventually delivered or dropped somewhere.
  EXPECT_EQ(c.delivered + c.dropped_ttl + c.dropped_filter +
                network.total_queue_drops(),
            c.transmitted);
}

TEST(Network, QueueOverflowDropsAreCounted) {
  sim::Simulator simulator;
  Network network(simulator);
  auto& a = network.add_node<Host>("a");
  auto& b = network.add_node<Host>("b");
  LinkParams slow;
  slow.capacity_bps = 80'000;  // 100 ms per 1000 B packet
  slow.delay = sim::SimTime::millis(1);
  slow.queue_bytes = 2'000;  // two packets
  network.connect(a.id(), b.id(), slow);
  a.set_address(network.assign_address(a.id()));
  b.set_address(network.assign_address(b.id()));
  network.compute_routes();

  for (int i = 0; i < 10; ++i) {
    sim::Packet p;
    p.dst = b.address();
    p.size_bytes = 1000;
    a.send(std::move(p));
  }
  simulator.run_until(sim::SimTime::seconds(5));
  EXPECT_GT(network.total_queue_drops(), 0u);
  EXPECT_LT(b.packets_received(), 10u);
  EXPECT_EQ(b.packets_received() + network.total_queue_drops(), 10u);
}

TEST(Network, PortNumberingIsSymmetric) {
  sim::Simulator simulator;
  Network network(simulator);
  auto& x = network.add_node<Router>("x");
  auto& y = network.add_node<Router>("y");
  auto& z = network.add_node<Router>("z");
  const auto [xy_x, xy_y] = network.connect(x.id(), y.id(), LinkParams{});
  const auto [xz_x, xz_z] = network.connect(x.id(), z.id(), LinkParams{});
  EXPECT_EQ(xy_x, 0);
  EXPECT_EQ(xy_y, 0);
  EXPECT_EQ(xz_x, 1);
  EXPECT_EQ(xz_z, 0);
  EXPECT_EQ(x.neighbor(0), y.id());
  EXPECT_EQ(x.neighbor(1), z.id());
  EXPECT_EQ(y.neighbor(0), x.id());
}

TEST(Network, RoutesPickShortestPath) {
  // Diamond: a - r1 - r2 - b and a - r1 - r3 - r4 - b; shortest wins.
  sim::Simulator simulator;
  Network network(simulator);
  auto& r1 = network.add_node<Router>("r1");
  auto& r2 = network.add_node<Router>("r2");
  auto& r3 = network.add_node<Router>("r3");
  auto& r4 = network.add_node<Router>("r4");
  auto& a = network.add_node<Host>("a");
  auto& b = network.add_node<Host>("b");
  network.connect(a.id(), r1.id(), LinkParams{});
  network.connect(r1.id(), r2.id(), LinkParams{});
  network.connect(r1.id(), r3.id(), LinkParams{});
  network.connect(r3.id(), r4.id(), LinkParams{});
  network.connect(r2.id(), b.id(), LinkParams{});
  network.connect(r4.id(), b.id(), LinkParams{});
  a.set_address(network.assign_address(a.id()));
  b.set_address(network.assign_address(b.id()));
  network.compute_routes();
  EXPECT_EQ(network.hop_distance(a.id(), b.address()), 3);
  // r1's port toward b is the r2 port (shorter branch).
  const int port = network.route_port(r1.id(), b.address());
  EXPECT_EQ(r1.neighbor(static_cast<std::size_t>(port)), r2.id());
}

}  // namespace
}  // namespace hbp::net
