#include "marking/spie.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "net/host.hpp"
#include "topo/string_topo.hpp"
#include "traffic/cbr.hpp"

namespace hbp::marking {
namespace {

struct SpieFixture : public ::testing::Test {
  void build(int hops, const SpieParams& params) {
    // A rebuild replaces the network: drop everything that taps its routers
    // first, then the network itself, which references the old simulator.
    tracer.reset();
    agent_map.clear();
    agents.clear();
    network.reset();
    simulator = std::make_unique<sim::Simulator>();
    network = std::make_unique<net::Network>(*simulator);
    topo::StringParams sp;
    sp.hops = hops;
    sp.with_client = true;
    topo = topo::build_string(*network, sp);
    network->compute_routes();

    auto install = [&](sim::NodeId r) {
      agents.push_back(std::make_unique<SpieAgent>(
          static_cast<net::Router&>(network->node(r)), params));
      agent_map[r] = agents.back().get();
    };
    install(topo.gateway);
    for (const sim::NodeId r : topo.chain_routers) install(r);
    tracer = std::make_unique<SpieTracer>(*network, agent_map);

    static_cast<net::Host&>(network->node(topo.server))
        .set_receiver(net::Host::ReceiveFn::bind<&SpieFixture::record>(*this));
  }

  void record(const sim::Packet& p) {
    last_packet = p;
    last_arrival = simulator->now();
  }

  // Sends one packet from the attacker and returns its digest+time.
  std::pair<std::uint64_t, sim::SimTime> one_attack_packet() {
    sim::Packet p;
    p.dst = topo.server_addr;
    p.src = 0xbadf00d;  // spoofed
    p.size_bytes = 900;
    p.is_attack = true;
    static_cast<net::Host&>(network->node(topo.attacker_host))
        .send(std::move(p));
    simulator->run_until(simulator->now() + sim::SimTime::seconds(1));
    return {SpieAgent::digest(last_packet), last_arrival};
  }

  std::vector<sim::NodeId> true_path() const {
    std::vector<sim::NodeId> path{topo.gateway};
    for (const sim::NodeId r : topo.chain_routers) path.push_back(r);
    return path;
  }

  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<net::Network> network;
  topo::StringTopo topo;
  std::vector<std::unique_ptr<SpieAgent>> agents;
  std::map<sim::NodeId, SpieAgent*> agent_map;
  std::unique_ptr<SpieTracer> tracer;
  sim::Packet last_packet;
  sim::SimTime last_arrival;
};

TEST_F(SpieFixture, SinglePacketTracesFullPath) {
  build(6, SpieParams{});
  const auto [digest, when] = one_attack_packet();
  auto implicated = tracer->trace(topo.gateway, digest, when);
  std::sort(implicated.begin(), implicated.end());
  auto expected = true_path();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(implicated, expected);
}

TEST_F(SpieFixture, UnknownDigestImplicatesNothing) {
  build(4, SpieParams{});
  one_attack_packet();
  const auto implicated =
      tracer->trace(topo.gateway, 0xfeedfeedfeedULL, simulator->now());
  EXPECT_TRUE(implicated.empty());
}

TEST_F(SpieFixture, DigestExpiresAfterRetention) {
  SpieParams params;
  params.window = sim::SimTime::seconds(2);
  params.windows_retained = 2;
  build(4, params);
  const auto [digest, when] = one_attack_packet();
  // Generate traffic to roll the windows well past retention.
  for (int i = 0; i < 10; ++i) {
    simulator->run_until(simulator->now() + sim::SimTime::seconds(2));
    one_attack_packet();
  }
  EXPECT_FALSE(agent_map[topo.gateway]->saw(digest, when));
}

TEST_F(SpieFixture, UndersizedTablesCreateFalseBranches) {
  // Saturate tiny Bloom filters with cross traffic: the tracer implicates
  // routers beyond the true path region... on a string there are no side
  // branches, so measure via the agent-level false positive rate instead.
  SpieParams params;
  params.bits_per_window = 512;  // absurdly small
  build(6, params);
  util::Rng rng(9);
  traffic::CbrParams cbr;
  cbr.rate_bps = 1.6e6;  // 200 pps of background
  traffic::CbrSource background(
      *simulator, static_cast<net::Host&>(network->node(topo.client_host)),
      rng, cbr, [this] { return topo.server_addr; });
  background.start();
  simulator->run_until(sim::SimTime::seconds(8));
  // Query digests of packets that never existed: saturated tables match.
  int fp = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    if (agent_map[topo.gateway]->saw(util::mix64(i + 77'000'000),
                                     simulator->now())) {
      ++fp;
    }
  }
  EXPECT_GT(fp, 20);
}

TEST_F(SpieFixture, StorageGrowsWithTrafficRetention) {
  SpieParams small;
  small.bits_per_window = 1u << 12;
  SpieParams big;
  big.bits_per_window = 1u << 18;
  build(4, small);
  one_attack_packet();
  const auto small_bytes = agent_map[topo.gateway]->storage_bytes();
  build(4, big);
  one_attack_packet();
  const auto big_bytes = agent_map[topo.gateway]->storage_bytes();
  EXPECT_EQ(big_bytes, small_bytes * 64);
  EXPECT_GT(agent_map[topo.gateway]->packets_recorded(), 0u);
}

TEST_F(SpieFixture, SpoofedSourceIrrelevantToDigest) {
  build(4, SpieParams{});
  const auto [digest, when] = one_attack_packet();
  // The digest keys on the packet itself, not its claimed source: tracing
  // works although src was forged.
  EXPECT_FALSE(tracer->trace(topo.gateway, digest, when).empty());
}

}  // namespace
}  // namespace hbp::marking
