#include "net/switch_node.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/host.hpp"
#include "net/network.hpp"
#include "net/router.hpp"
#include "sim/simulator.hpp"

namespace hbp::net {
namespace {

struct SwitchFixture : public ::testing::Test {
  // h1, h2, h3 -- switch -- router -- server
  void SetUp() override {
    sw = &network.add_node<Switch>("sw");
    router = &network.add_node<Router>("r");
    server = &network.add_node<Host>("server");
    LinkParams link;
    link.capacity_bps = 10e6;
    link.delay = sim::SimTime::millis(1);
    for (int i = 0; i < 3; ++i) {
      hosts[i] = &network.add_node<Host>("h" + std::to_string(i));
      const auto [sw_port, host_port] =
          network.connect(sw->id(), hosts[i]->id(), link);
      host_ports[i] = sw_port;
      (void)host_port;
    }
    const auto [sw_up, r_down] = network.connect(sw->id(), router->id(), link);
    uplink_port = sw_up;
    (void)r_down;
    network.connect(router->id(), server->id(), link);
    for (auto* h : hosts) h->set_address(network.assign_address(h->id()));
    server->set_address(network.assign_address(server->id()));
    network.compute_routes();
  }

  void send(int host, sim::Address dst) {
    sim::Packet p;
    p.dst = dst;
    p.size_bytes = 100;
    hosts[host]->send(std::move(p));
  }

  sim::Simulator simulator;
  Network network{simulator};
  Switch* sw = nullptr;
  Router* router = nullptr;
  Host* server = nullptr;
  Host* hosts[3] = {};
  int host_ports[3] = {};
  int uplink_port = -1;
};

TEST_F(SwitchFixture, ForwardsThroughUplink) {
  send(0, server->address());
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(server->packets_received(), 1u);
  EXPECT_EQ(sw->frames_forwarded(), 1u);
}

TEST_F(SwitchFixture, LocalSwitchingBetweenHosts) {
  send(0, hosts[1]->address());
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(hosts[1]->packets_received(), 1u);
  // Local frames never touch the router.
  EXPECT_EQ(router->forwarded(), 0u);
}

TEST_F(SwitchFixture, ClosePortBlocksHost) {
  sw->close_port(host_ports[1]);
  send(0, server->address());
  send(1, server->address());
  send(2, server->address());
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(server->packets_received(), 2u);
  EXPECT_EQ(sw->frames_blocked(), 1u);
  EXPECT_TRUE(sw->is_closed(host_ports[1]));
  EXPECT_EQ(sw->closed_port_count(), 1u);
}

TEST_F(SwitchFixture, ClosedPortBlocksDownstreamToo) {
  // Traffic *to* the closed host is also not forwarded out the closed port?
  // The port is closed for frames arriving *from* it; delivery toward the
  // host still works (the paper shuts off the attacker's transmissions).
  sw->close_port(host_ports[0]);
  send(1, hosts[0]->address());
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(hosts[0]->packets_received(), 1u);
}

TEST_F(SwitchFixture, WatchCountsOnlyWatchedDestination) {
  sw->start_watch(server->address());
  EXPECT_TRUE(sw->watching(server->address()));
  send(0, server->address());
  send(1, hosts[2]->address());  // not watched
  simulator.run_until(sim::SimTime::seconds(1));
  std::vector<int> ports;
  sw->ports_sending_to(server->address(), ports);
  ASSERT_EQ(ports.size(), 1u);
  EXPECT_EQ(ports[0], host_ports[0]);
}

TEST_F(SwitchFixture, WatchSeesMultipleSenders) {
  sw->start_watch(server->address());
  send(0, server->address());
  send(2, server->address());
  simulator.run_until(sim::SimTime::seconds(1));
  std::vector<int> ports;
  sw->ports_sending_to(server->address(), ports);
  std::sort(ports.begin(), ports.end());
  EXPECT_EQ(ports, (std::vector<int>{host_ports[0], host_ports[2]}));
}

TEST_F(SwitchFixture, StopWatchClearsCounts) {
  sw->start_watch(server->address());
  send(0, server->address());
  simulator.run_until(sim::SimTime::seconds(1));
  sw->stop_watch(server->address());
  EXPECT_FALSE(sw->watching(server->address()));
  std::vector<int> ports{-1};
  sw->ports_sending_to(server->address(), ports);
  EXPECT_TRUE(ports.empty());
}

TEST_F(SwitchFixture, WatchDoesNotSeeSpoofedSourceOnlyPhysicalPort) {
  // The watch identifies the physical port regardless of the forged source
  // address — the unspoofability the MAC endgame relies on.
  sw->start_watch(server->address());
  sim::Packet p;
  p.dst = server->address();
  p.src = 0x7f000001;  // forged
  p.size_bytes = 100;
  hosts[2]->send(std::move(p));
  simulator.run_until(sim::SimTime::seconds(1));
  std::vector<int> ports;
  sw->ports_sending_to(server->address(), ports);
  ASSERT_EQ(ports.size(), 1u);
  EXPECT_EQ(sw->attached_host(ports[0]), hosts[2]->id());
}

TEST_F(SwitchFixture, WatchBufferIsReplacedOnReuse) {
  // One caller-owned buffer across two harvests: the second call replaces
  // the first's ports rather than appending, and keeps the capacity.
  sw->start_watch(server->address());
  send(0, server->address());
  send(2, server->address());
  simulator.run_until(sim::SimTime::seconds(1));
  std::vector<int> ports;
  sw->ports_sending_to(server->address(), ports);
  EXPECT_EQ(ports, (std::vector<int>{host_ports[0], host_ports[2]}));
  const int* const storage = ports.data();

  sw->stop_watch(server->address());
  sw->start_watch(server->address());
  send(1, server->address());
  simulator.run_until(sim::SimTime::seconds(2));
  sw->ports_sending_to(server->address(), ports);
  EXPECT_EQ(ports, (std::vector<int>{host_ports[1]}));
  EXPECT_EQ(ports.data(), storage);
}

TEST_F(SwitchFixture, AttachedHostIdentifiesHostsAndUplink) {
  EXPECT_EQ(sw->attached_host(host_ports[0]), hosts[0]->id());
  EXPECT_EQ(sw->attached_host(uplink_port), sim::kInvalidNode);
}

}  // namespace
}  // namespace hbp::net
