#include "marking/ingress_filter.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/host.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "util/rng.hpp"

namespace hbp::marking {
namespace {

struct IngressFixture : public ::testing::Test {
  void SetUp() override {
    access = &network.add_node<net::Router>("access");
    sw = &network.add_node<net::Switch>("sw");
    server = &network.add_node<net::Host>("server");
    local = &network.add_node<net::Host>("local");
    net::LinkParams link;
    const auto [a_up, _1] = network.connect(access->id(), server->id(), link);
    const auto [a_down, _2] = network.connect(access->id(), sw->id(), link);
    (void)a_up; (void)_1; (void)_2;
    local_port = a_down;
    network.connect(sw->id(), local->id(), link);
    server->set_address(network.assign_address(server->id()));
    local->set_address(network.assign_address(local->id()));
    network.compute_routes();

    filter = std::make_unique<IngressFilter>(
        *access, local_port, std::set<sim::Address>{local->address()});
  }

  void send(sim::Address spoofed_src) {
    sim::Packet p;
    p.dst = server->address();
    p.src = spoofed_src;
    p.size_bytes = 100;
    local->send(std::move(p));
    simulator.run_until(simulator.now() + sim::SimTime::seconds(1));
  }

  sim::Simulator simulator;
  net::Network network{simulator};
  net::Router* access = nullptr;
  net::Switch* sw = nullptr;
  net::Host* server = nullptr;
  net::Host* local = nullptr;
  int local_port = -1;
  std::unique_ptr<IngressFilter> filter;
};

TEST_F(IngressFixture, HonestSourcePasses) {
  send(local->address());
  EXPECT_EQ(server->packets_received(), 1u);
  EXPECT_EQ(filter->passed(), 1u);
  EXPECT_EQ(filter->spoofed_dropped(), 0u);
}

TEST_F(IngressFixture, SpoofedSourceDropped) {
  send(0xdeadbeef);
  EXPECT_EQ(server->packets_received(), 0u);
  EXPECT_EQ(filter->spoofed_dropped(), 1u);
}

TEST_F(IngressFixture, RandomSpoofFloodFullyBlocked) {
  // Forged sources as an attack CbrSource draws them: uniform and non-zero.
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    send(static_cast<sim::Address>(rng.below(0xffffffffULL) + 1));
  }
  EXPECT_EQ(server->packets_received(), 0u);
  EXPECT_EQ(filter->spoofed_dropped(), 200u);
}

TEST_F(IngressFixture, LegitimateSpoofingBreaks) {
  // The paper's criticism: mobile IP uses the *home* address from a
  // foreign network — exactly what ingress filtering kills.
  const sim::Address home_address = 0x0a00002a;  // not in the local prefix
  send(home_address);
  EXPECT_EQ(server->packets_received(), 0u);
  EXPECT_EQ(filter->spoofed_dropped(), 1u);
}

TEST_F(IngressFixture, TrafficEnteringOnOtherPortsUntouched) {
  // Return traffic from the server side must not be evaluated against the
  // stub's source list.
  sim::Packet p;
  p.dst = local->address();
  p.src = server->address();
  p.size_bytes = 100;
  server->send(std::move(p));
  simulator.run_until(sim::SimTime::seconds(1));
  EXPECT_EQ(local->packets_received(), 1u);
  EXPECT_EQ(filter->spoofed_dropped(), 0u);
}

}  // namespace
}  // namespace hbp::marking
