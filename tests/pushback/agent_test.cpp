// Pushback/ACC behaviour on a small Y topology:
//
//   attacker -- r_up_a --+
//                        r_congested == (thin link) == server
//   client   -- r_up_b --+
//
// The congested router detects drops on the thin link, rate-limits the
// destination-prefix aggregate, and pushes shares upstream.
#include "pushback/agent.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/host.hpp"
#include "net/network.hpp"
#include "traffic/cbr.hpp"

namespace hbp::pushback {
namespace {

// The Y network with a Pushback system over its routers (not yet
// installed).
struct YNetwork {
  YNetwork() {
    congested = &network.add_node<net::Router>("congested");
    up_a = &network.add_node<net::Router>("up_a");
    up_b = &network.add_node<net::Router>("up_b");
    server = &network.add_node<net::Host>("server");
    attacker = &network.add_node<net::Host>("attacker");
    client = &network.add_node<net::Host>("client");

    net::LinkParams fast;
    fast.capacity_bps = 100e6;
    fast.delay = sim::SimTime::millis(1);
    net::LinkParams thin;
    thin.capacity_bps = 2e6;
    thin.delay = sim::SimTime::millis(1);
    thin.queue_bytes = 16'000;

    network.connect(congested->id(), server->id(), thin);
    network.connect(up_a->id(), congested->id(), fast);
    network.connect(up_b->id(), congested->id(), fast);
    network.connect(attacker->id(), up_a->id(), fast);
    network.connect(client->id(), up_b->id(), fast);
    server->set_address(network.assign_address(server->id()));
    attacker->set_address(network.assign_address(attacker->id()));
    client->set_address(network.assign_address(client->id()));
    network.compute_routes();

    control = std::make_unique<net::ControlPlane>(simulator,
                                                  net::ControlPlane::Params{});
    PushbackParams params;
    params.aggregate_prefix_shift = 4;
    system = std::make_unique<PushbackSystem>(simulator, network, *control,
                                              params);
  }

  void install_all() {
    const std::vector<sim::NodeId> routers{congested->id(), up_a->id(),
                                           up_b->id()};
    system->install(routers);
  }

  sim::Simulator simulator;
  net::Network network{simulator};
  net::Router* congested = nullptr;
  net::Router* up_a = nullptr;
  net::Router* up_b = nullptr;
  net::Host* server = nullptr;
  net::Host* attacker = nullptr;
  net::Host* client = nullptr;
  std::unique_ptr<net::ControlPlane> control;
  std::unique_ptr<PushbackSystem> system;
  util::Rng rng{3};
};

struct PushbackFixture : public ::testing::Test, public YNetwork {};

// A 10 Mb/s flood from the attacker beside a 1.5 Mb/s client, both to the
// server, for 10 s.
void run_flood_and_client(YNetwork& y) {
  traffic::CbrParams flood;
  flood.rate_bps = 10e6;
  flood.is_attack = true;
  traffic::CbrSource bad(y.simulator, *y.attacker, y.rng, flood,
                         [&y] { return y.server->address(); });
  bad.start();
  util::Rng rng2(99);
  traffic::CbrParams legit;
  legit.rate_bps = 1.5e6;
  traffic::CbrSource good(y.simulator, *y.client, rng2, legit,
                          [&y] { return y.server->address(); });
  good.start();
  y.simulator.run_until(sim::SimTime::seconds(10));
}

TEST_F(PushbackFixture, DetectsCongestionAndCreatesSession) {
  install_all();
  traffic::CbrParams flood;
  flood.rate_bps = 10e6;  // 5x the thin link
  flood.is_attack = true;
  traffic::CbrSource source(simulator, *attacker, rng, flood,
                            [this] { return server->address(); });
  source.start();
  simulator.run_until(sim::SimTime::seconds(5));
  EXPECT_GE(system->agent(congested->id())->active_sessions(), 1u);
  EXPECT_GT(system->total_limited_drops(), 0u);
}

TEST_F(PushbackFixture, PropagatesUpstream) {
  install_all();
  traffic::CbrParams flood;
  flood.rate_bps = 10e6;
  flood.is_attack = true;
  traffic::CbrSource source(simulator, *attacker, rng, flood,
                            [this] { return server->address(); });
  source.start();
  simulator.run_until(sim::SimTime::seconds(6));
  EXPECT_GT(system->requests_sent(), 0u);
  // The attack-side upstream router holds a session; drops move upstream.
  EXPECT_GE(system->agent(up_a->id())->active_sessions(), 1u);
  EXPECT_GT(system->agent(up_a->id())->limited_drops(), 0u);
}

TEST_F(PushbackFixture, ProtectsLinkUtilization) {
  install_all();
  traffic::CbrParams flood;
  flood.rate_bps = 20e6;  // 10x overload
  flood.is_attack = true;
  traffic::CbrSource source(simulator, *attacker, rng, flood,
                            [this] { return server->address(); });
  source.start();
  simulator.run_until(sim::SimTime::seconds(10));
  // After control engages, offered load at the thin link is near target:
  // the queue stops overflowing (few drops in late windows).
  const auto& queue = network.link(congested->id(), 0).queue();
  const std::uint64_t drops_at_10 = queue.drops();
  simulator.run_until(sim::SimTime::seconds(20));
  const std::uint64_t late_drops = queue.drops() - drops_at_10;
  // Without control ~18 Mb/s excess = ~2250 packets/s dropped; with
  // control the late-window drop rate collapses by >90%.
  EXPECT_LT(late_drops, 2250u * 10u / 10u);
}

TEST_F(PushbackFixture, SessionsExpireAfterAttackEnds) {
  install_all();
  traffic::CbrParams flood;
  flood.rate_bps = 10e6;
  flood.is_attack = true;
  flood.stop = sim::SimTime::seconds(5);
  traffic::CbrSource source(simulator, *attacker, rng, flood,
                            [this] { return server->address(); });
  source.start();
  simulator.run_until(sim::SimTime::seconds(5));
  EXPECT_GT(system->total_sessions(), 0u);
  simulator.run_until(sim::SimTime::seconds(20));
  EXPECT_EQ(system->total_sessions(), 0u);
  EXPECT_GT(system->cancels_sent(), 0u);
}

TEST_F(PushbackFixture, InnocentBystanderSharesAggregatePain) {
  // The client sends to the server too: the coarse prefix aggregate lumps
  // it with the attack, so some legitimate packets die in the limiters —
  // the paper's collateral-damage effect, measurable at small scale.
  install_all();
  traffic::CbrParams flood;
  flood.rate_bps = 10e6;
  flood.is_attack = true;
  traffic::CbrSource bad(simulator, *attacker, rng, flood,
                         [this] { return server->address(); });
  bad.start();
  util::Rng rng2(99);
  traffic::CbrParams legit;
  legit.rate_bps = 0.8e6;
  traffic::CbrSource good(simulator, *client, rng2, legit,
                          [this] { return server->address(); });
  good.start();

  std::uint64_t legit_delivered = 0;
  auto on_packet = [&](const sim::Packet& p) {
    if (!p.is_attack) ++legit_delivered;
  };
  server->set_receiver(on_packet);
  simulator.run_until(sim::SimTime::seconds(20));
  EXPECT_LT(legit_delivered, good.packets_sent());  // some loss
  EXPECT_GT(legit_delivered, 0u);                   // but not starved
}

TEST_F(PushbackFixture, NoSessionsWithoutCongestion) {
  install_all();
  traffic::CbrParams gentle;
  gentle.rate_bps = 0.4e6;
  traffic::CbrSource source(simulator, *client, rng, gentle,
                            [this] { return server->address(); });
  source.start();
  simulator.run_until(sim::SimTime::seconds(10));
  EXPECT_EQ(system->total_sessions(), 0u);
  EXPECT_EQ(system->requests_sent(), 0u);
}

TEST_F(PushbackFixture, DropsBeforeInstallDoNotCount) {
  // A flood fills the thin link's queue and stops as the agents install;
  // a client then overflows the link by ~2.5%, under the 5% drop-rate
  // threshold.  The flood's drops predate every window, so no window may
  // count them as congestion.
  traffic::CbrParams flood;
  flood.rate_bps = 10e6;
  flood.is_attack = true;
  flood.stop = sim::SimTime::seconds(1);
  traffic::CbrSource bad(simulator, *attacker, rng, flood,
                         [this] { return server->address(); });
  bad.start();
  util::Rng rng2(99);
  traffic::CbrParams legit;
  legit.rate_bps = 2.05e6;
  traffic::CbrSource good(simulator, *client, rng2, legit,
                          [this] { return server->address(); });
  good.start();
  simulator.run_until(sim::SimTime::seconds(1));
  ASSERT_GT(network.link(congested->id(), 0).queue().drops(), 0u);
  install_all();
  simulator.run_until(sim::SimTime::seconds(6));
  EXPECT_EQ(system->total_sessions(), 0u);
  EXPECT_EQ(system->requests_sent(), 0u);
}

TEST_F(PushbackFixture, WeightedSplitFavorsHeavyPorts) {
  // Level-k flavour: the same flood and client twice, the second time with
  // up_b (the client side, port 2 of the congested router) weighted 10.
  // Its share of the congested router's limit grows, so up_b is limited
  // less (or not at all) than in the plain max-min split.
  install_all();
  run_flood_and_client(*this);

  YNetwork weighted;
  weighted.install_all();
  weighted.system->agent(weighted.congested->id())
      ->set_port_weights({1.0, 1.0, 10.0});
  run_flood_and_client(weighted);

  const std::uint64_t plain_drops = system->agent(up_b->id())->limited_drops();
  const std::uint64_t weighted_drops =
      weighted.system->agent(weighted.up_b->id())->limited_drops();
  EXPECT_GT(plain_drops, 0u);
  EXPECT_LT(weighted_drops, plain_drops);
}

}  // namespace
}  // namespace hbp::pushback
