#include "marking/stackpi.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/host.hpp"
#include "net/network.hpp"
#include "topo/tree.hpp"
#include "traffic/cbr.hpp"

namespace hbp::marking {
namespace {

// Two clients behind different branches plus one sharing the attacker's
// access path:
//
//   victim -- r0 -- r1 -- swA -- attacker, shared_client
//                \- r2 -- swB -- other_client
struct PiFixture : public ::testing::Test {
  void SetUp() override {
    r0 = &network.add_node<net::Router>("r0");
    r1 = &network.add_node<net::Router>("r1");
    r2 = &network.add_node<net::Router>("r2");
    net::LinkParams link;
    link.capacity_bps = 100e6;
    link.delay = sim::SimTime::millis(1);
    victim = &network.add_node<net::Host>("victim");
    network.connect(r0->id(), victim->id(), link);
    network.connect(r0->id(), r1->id(), link);
    network.connect(r0->id(), r2->id(), link);
    auto attach = [&](const char* name, sim::NodeId router) {
      auto& host = network.add_node<net::Host>(name);
      network.connect(router, host.id(), link);
      host.set_address(network.assign_address(host.id()));
      return &host;
    };
    victim->set_address(network.assign_address(victim->id()));
    attacker = attach("attacker", r1->id());
    shared_client = attach("shared", r1->id());
    other_client = attach("other", r2->id());
    network.compute_routes();

    for (net::Router* r : {r0, r1, r2}) {
      markers.push_back(std::make_unique<PiMarker>(*r, params));
    }
  }

  sim::Packet send_and_capture(net::Host* from, bool attack) {
    sim::Packet captured;
    bool got = false;
    auto on_packet = [&](const sim::Packet& p) {
      captured = p;
      got = true;
    };
    victim->set_receiver(on_packet);
    sim::Packet p;
    p.dst = victim->address();
    p.size_bytes = 100;
    p.is_attack = attack;
    from->send(std::move(p));
    simulator.run_until(simulator.now() + sim::SimTime::seconds(1));
    EXPECT_TRUE(got);
    return captured;
  }

  StackPiParams params;
  sim::Simulator simulator;
  net::Network network{simulator};
  net::Router* r0 = nullptr;
  net::Router* r1 = nullptr;
  net::Router* r2 = nullptr;
  net::Host* victim = nullptr;
  net::Host* attacker = nullptr;
  net::Host* shared_client = nullptr;
  net::Host* other_client = nullptr;
  std::vector<std::unique_ptr<PiMarker>> markers;
};

TEST_F(PiFixture, SamePathSameMarkDeterministic) {
  const auto a1 = send_and_capture(attacker, true);
  const auto a2 = send_and_capture(attacker, true);
  EXPECT_EQ(a1.mark, a2.mark);
  EXPECT_GE(a1.mark, 0);
}

TEST_F(PiFixture, MarkSurvivesSpoofedSource) {
  sim::Packet captured;
  auto on_packet = [&](const sim::Packet& p) { captured = p; };
  victim->set_receiver(on_packet);
  sim::Packet p;
  p.dst = victim->address();
  p.src = 0xabcdef;  // spoofed
  p.size_bytes = 100;
  attacker->send(std::move(p));
  simulator.run_until(simulator.now() + sim::SimTime::seconds(1));
  const auto honest = send_and_capture(attacker, true);
  EXPECT_EQ(captured.mark, honest.mark);  // path fingerprint, not source
}

TEST_F(PiFixture, DisjointPathsGetDistinctMarks) {
  const auto via_r1 = send_and_capture(attacker, true);
  const auto via_r2 = send_and_capture(other_client, false);
  EXPECT_NE(via_r1.mark, via_r2.mark);
}

TEST_F(PiFixture, FilterDropsAttackKeepsDisjointClient) {
  PiVictim filter;
  filter.learn_attack(send_and_capture(attacker, true));
  EXPECT_TRUE(filter.drop(send_and_capture(attacker, true)));
  EXPECT_FALSE(filter.drop(send_and_capture(other_client, false)));
}

TEST_F(PiFixture, SharedPathClientIsCollateral) {
  // The client on the attacker's switch shares the whole router path and
  // therefore the mark: StackPi cannot distinguish them (the false
  // positives the paper attributes to the scheme).
  PiVictim filter;
  filter.learn_attack(send_and_capture(attacker, true));
  EXPECT_TRUE(filter.drop(send_and_capture(shared_client, false)));
}

TEST_F(PiFixture, SenderPreloadedMarkShiftedOut) {
  // An attacker pre-loading a fake mark has it shifted out after
  // 16/bits_per_hop hops; with only 3 routers here some bits remain, but
  // the suffix (the last 3 routers' worth) is forced honest.
  sim::Packet captured;
  auto on_packet = [&](const sim::Packet& p) { captured = p; };
  victim->set_receiver(on_packet);
  sim::Packet p;
  p.dst = victim->address();
  p.size_bytes = 100;
  p.mark = 0xffff;
  attacker->send(std::move(p));
  simulator.run_until(simulator.now() + sim::SimTime::seconds(1));
  const auto honest = send_and_capture(attacker, true);
  // The attacker's path crosses two routers (r1, r0): 2 hops x 2 bits of
  // the stack are forced honest.
  const std::uint16_t suffix_mask = (1u << (2 * 2)) - 1u;
  EXPECT_EQ(captured.mark & suffix_mask, honest.mark & suffix_mask);
}

TEST(PiAccuracy, DegradesWithDispersedAttackers) {
  // On a realistic tree: learn marks from n attackers, then measure the
  // false-positive rate over legitimate clients.  More dispersed attackers
  // => more of the mark space is blacklisted => more collateral drops.
  auto run = [](int n_attackers) {
    sim::Simulator simulator;
    net::Network network(simulator);
    topo::TreeParams tp;
    tp.leaf_count = 200;
    util::Rng rng(5);
    const topo::Tree tree = topo::build_tree(network, rng, tp);
    network.compute_routes();

    StackPiParams params;
    std::vector<std::unique_ptr<PiMarker>> markers;
    auto install = [&](sim::NodeId r) {
      markers.push_back(std::make_unique<PiMarker>(
          static_cast<net::Router&>(network.node(r)), params));
    };
    install(tree.gateway);
    for (const sim::NodeId r : tree.interior_routers) install(r);
    for (const sim::NodeId r : tree.access_routers) install(r);

    PiVictim filter;
    auto& victim = static_cast<net::Host&>(network.node(tree.servers[0]));
    sim::Packet last;
    auto on_packet = [&](const sim::Packet& p) { last = p; };
    victim.set_receiver(on_packet);
    auto mark_of_leaf = [&](std::size_t leaf) {
      sim::Packet p;
      p.dst = tree.server_addrs[0];
      p.size_bytes = 100;
      static_cast<net::Host&>(network.node(tree.leaf_hosts[leaf]))
          .send(std::move(p));
      simulator.run_until(simulator.now() + sim::SimTime::seconds(1));
      return last;
    };

    // Attackers: every other leaf from the front; learn their marks.
    for (int a = 0; a < n_attackers; ++a) {
      filter.learn_attack(mark_of_leaf(static_cast<std::size_t>(a) * 2));
    }
    // Legitimate clients: the odd leaves; count collateral drops.
    int fp = 0, total = 0;
    for (std::size_t leaf = 1; leaf < 200; leaf += 2) {
      ++total;
      if (filter.drop(mark_of_leaf(leaf))) ++fp;
    }
    return static_cast<double>(fp) / total;
  };

  const double fp_small = run(5);
  const double fp_large = run(60);
  EXPECT_GT(fp_large, fp_small);
  EXPECT_GT(fp_large, 0.05);  // substantial collateral at 60 attackers
}

}  // namespace
}  // namespace hbp::marking
