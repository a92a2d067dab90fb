// Integration tests for the roaming server pool and roaming clients on a
// small star topology: clients always hit active servers, honeypot windows
// fire, attack traffic is flagged, and connections migrate with their
// checkpointed state.
#include <gtest/gtest.h>

#include <memory>

#include "honeypot/client.hpp"
#include "honeypot/server_pool.hpp"
#include "net/network.hpp"
#include "net/router.hpp"

namespace hbp::honeypot {
namespace {

struct PoolFixture : public ::testing::Test {
  static constexpr int kServers = 5;

  void SetUp() override {
    router = &network.add_node<net::Router>("r");
    net::LinkParams link;
    link.capacity_bps = 100e6;
    link.delay = sim::SimTime::millis(1);
    for (int s = 0; s < kServers; ++s) {
      auto& host = network.add_node<net::Host>("server" + std::to_string(s));
      network.connect(router->id(), host.id(), link);
      host.set_address(network.assign_address(host.id()));
      server_nodes.push_back(host.id());
      server_addrs.push_back(host.address());
    }
    client_host = &network.add_node<net::Host>("client");
    network.connect(router->id(), client_host->id(), link);
    client_host->set_address(network.assign_address(client_host->id()));
    attacker_host = &network.add_node<net::Host>("attacker");
    network.connect(router->id(), attacker_host->id(), link);
    attacker_host->set_address(network.assign_address(attacker_host->id()));
    network.compute_routes();

    chain = std::make_shared<HashChain>(util::Sha256::hash("pool-test"), 512);
    schedule = std::make_unique<RoamingSchedule>(chain, kServers, 3,
                                                 sim::SimTime::seconds(5));
    ServerPoolParams params;
    params.delta = sim::SimTime::millis(50);
    params.gamma = sim::SimTime::millis(50);
    pool = std::make_unique<ServerPool>(simulator, network, *schedule,
                                        server_nodes, server_addrs, store,
                                        params);
    subscription = std::make_unique<SubscriptionService>(chain, 32);
  }

  sim::Simulator simulator;
  net::Network network{simulator};
  net::Router* router = nullptr;
  net::Host* client_host = nullptr;
  net::Host* attacker_host = nullptr;
  std::vector<sim::NodeId> server_nodes;
  std::vector<sim::Address> server_addrs;
  std::shared_ptr<HashChain> chain;
  std::unique_ptr<RoamingSchedule> schedule;
  CheckpointStore store;
  std::unique_ptr<ServerPool> pool;
  std::unique_ptr<SubscriptionService> subscription;
  util::Rng rng{5};
};

TEST_F(PoolFixture, HoneypotWindowsFireForInactiveEpochs) {
  int starts = 0, ends = 0;
  auto on_start = [&](int server, std::size_t epoch) {
    EXPECT_FALSE(schedule->is_active(server, epoch));
    ++starts;
  };
  auto on_end = [&](int, std::size_t) { ++ends; };
  pool->add_honeypot_window_listener(on_start, on_end);
  pool->start();
  simulator.run_until(sim::SimTime::seconds(50));  // 10 epochs
  // 2 honeypots per epoch x 10 epochs.
  EXPECT_EQ(starts, 20);
  EXPECT_EQ(ends, 20);
}

TEST_F(PoolFixture, ClientAlwaysHitsActiveServers) {
  pool->start();
  RoamingClientParams params;
  params.cbr.rate_bps = 0.8e6;
  params.max_clock_skew = sim::SimTime::millis(50);
  RoamingClient client(simulator, *client_host, rng, *schedule, *subscription,
                       *pool, params);
  client.start();
  simulator.run_until(sim::SimTime::seconds(100));

  EXPECT_GT(pool->legit_bytes(), 0u);
  EXPECT_EQ(pool->honeypot_packets(), 0u);  // never hit a honeypot
  EXPECT_GT(client.migrations(), 5u);       // it really roams
  // Guard-band tolerance may eat boundary packets, but nearly everything
  // is served.
  const double served =
      static_cast<double>(pool->legit_bytes()) / 1000.0;  // packets
  EXPECT_GT(served, 0.97 * static_cast<double>(client.packets_sent()));
}

TEST_F(PoolFixture, AttackOnFixedServerHitsHoneypotWindows) {
  pool->start();
  int hits = 0;
  auto on_hit = [&](int server, const sim::Packet& p) {
    EXPECT_EQ(pool->address(server), p.dst);
    EXPECT_TRUE(p.is_attack);
    ++hits;
  };
  pool->add_honeypot_hit_listener(on_hit);
  traffic::CbrParams params;
  params.rate_bps = 0.8e6;
  params.is_attack = true;
  traffic::CbrSource attacker(simulator, *attacker_host, rng, params,
                              [this] { return server_addrs[0]; });
  attacker.start();
  simulator.run_until(sim::SimTime::seconds(100));
  EXPECT_GT(hits, 100);
  EXPECT_EQ(pool->honeypot_packets(), static_cast<std::uint64_t>(hits));
  EXPECT_EQ(pool->honeypot_false_hits(), 0u);
  // The attacker also hits the server while it is active.
  EXPECT_GT(pool->attack_bytes_served(), 0u);
}

TEST_F(PoolFixture, WindowPredicatesAreExclusive) {
  pool->start();
  simulator.run_until(sim::SimTime::seconds(1));
  // A server active in t's epoch is never a honeypot, and a honeypot role
  // lies inside its epoch's honeypot window.
  for (int s = 0; s < kServers; ++s) {
    for (double t : {0.1, 2.5, 5.05, 7.0, 12.3, 26.0}) {
      const auto at = sim::SimTime::seconds(t);
      const std::size_t epoch = schedule->epoch_of(at);
      const ServerPool::Role role = pool->role_at(s, at);
      if (schedule->is_active(s, epoch)) {
        EXPECT_EQ(role, ServerPool::Role::kActive);
      } else if (role == ServerPool::Role::kHoneypot) {
        EXPECT_TRUE(pool->honeypot_window(epoch).contains(at));
      }
    }
  }
}

TEST_F(PoolFixture, ConnectionStateMigratesViaCheckpoints) {
  pool->start();
  RoamingClientParams params;
  params.cbr.rate_bps = 0.8e6;
  RoamingClient client(simulator, *client_host, rng, *schedule, *subscription,
                       *pool, params);
  client.start();
  simulator.run_until(sim::SimTime::seconds(100));
  EXPECT_GT(pool->connections_migrated(), 0u);
  EXPECT_GT(store.deposits(), 0u);
  EXPECT_GT(store.resumes(), 0u);
}

TEST_F(PoolFixture, SubscriptionRenewalHappensOnExpiry) {
  pool->start();
  RoamingClientParams params;
  params.cbr.rate_bps = 0.8e6;
  params.trust_level = 1;  // expires after 32 epochs = 160 s
  RoamingClient client(simulator, *client_host, rng, *schedule, *subscription,
                       *pool, params);
  client.start();
  simulator.run_until(sim::SimTime::seconds(300));
  EXPECT_GE(client.renewals(), 1u);
  EXPECT_GT(client.packets_skipped(), 0u);
  EXPECT_EQ(subscription->renewals(), client.renewals());
}

TEST_F(PoolFixture, HandshakesFeedBlacklist) {
  pool->start();
  RoamingClientParams params;
  params.cbr.rate_bps = 0.8e6;
  RoamingClient client(simulator, *client_host, rng, *schedule, *subscription,
                       *pool, params);
  client.start();
  simulator.run_until(sim::SimTime::seconds(20));
  // The client handshook with at least one server; if one of its packets
  // ever hit a honeypot it would be blacklisted — but none did, so the
  // blacklist is empty while the handshake record exists.
  EXPECT_EQ(pool->blacklist().size(), 0u);
  pool->blacklist().note_handshake(0xbeef);
  EXPECT_TRUE(pool->blacklist().observed_at_honeypot(0xbeef));
}

TEST_F(PoolFixture, IndexOfAddressRoundTrip) {
  for (int s = 0; s < kServers; ++s) {
    EXPECT_EQ(pool->index_of(pool->address(s)), s);
  }
  EXPECT_EQ(pool->index_of(0xffff), -1);
}

}  // namespace
}  // namespace hbp::honeypot
