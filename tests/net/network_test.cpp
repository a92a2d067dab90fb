#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/router.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"
#include "topo/tree.hpp"
#include "util/rng.hpp"

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

// --- route table against the reference algorithm ---

// The routing algorithm the flat table replaced, kept as the reference: one
// deque BFS per address over every node's neighbours in port order, and the
// parent port found by scanning the child's ports for the first match.
struct ReferenceRoutes {
  std::vector<std::vector<std::int32_t>> port;  // [node][address - 1]
  std::vector<std::vector<std::int32_t>> dist;  // [node][address - 1]
};

ReferenceRoutes reference_routes(const Network& network, std::size_t addresses) {
  const std::size_t n = network.node_count();
  const std::size_t m = addresses;
  ReferenceRoutes ref;
  ref.port.assign(n, std::vector<std::int32_t>(m, -1));
  ref.dist.assign(n, std::vector<std::int32_t>(m, -1));

  std::vector<std::int32_t> dist(n);
  std::deque<sim::NodeId> frontier;
  for (std::size_t ai = 0; ai < m; ++ai) {
    const sim::NodeId root = network.node_of(static_cast<sim::Address>(ai + 1));
    dist.assign(n, -1);
    dist[static_cast<std::size_t>(root)] = 0;
    frontier.clear();
    frontier.push_back(root);
    while (!frontier.empty()) {
      const sim::NodeId u = frontier.front();
      frontier.pop_front();
      const Node& nu = network.node(u);
      for (std::size_t port = 0; port < nu.port_count(); ++port) {
        const sim::NodeId v = nu.neighbor(port);
        if (dist[static_cast<std::size_t>(v)] != -1) continue;
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        // Next hop from v toward root is u; find v's port to u.
        const Node& nv = network.node(v);
        for (std::size_t vport = 0; vport < nv.port_count(); ++vport) {
          if (nv.neighbor(vport) == u) {
            ref.port[static_cast<std::size_t>(v)][ai] =
                static_cast<std::int32_t>(vport);
            break;
          }
        }
        frontier.push_back(v);
      }
    }
    for (std::size_t v = 0; v < n; ++v) ref.dist[v][ai] = dist[v];
  }
  return ref;
}

// Hosts are the only nodes with addresses, numbered 1..A.
std::size_t address_count(const Network& network) {
  std::size_t count = 0;
  for (std::size_t id = 0; id < network.node_count(); ++id) {
    const Node& node = network.node(static_cast<sim::NodeId>(id));
    if (node.kind() != NodeKind::kHost) continue;
    count = std::max<std::size_t>(count, static_cast<const Host&>(node).address());
  }
  return count;
}

// Every (node, address) entry and hop distance equals the reference's; a
// destination's own node reads -1.  Returns how many entries are -1 because
// the node cannot reach the address.
std::size_t expect_routes_match_reference(const Network& network) {
  const std::size_t m = address_count(network);
  const ReferenceRoutes ref = reference_routes(network, m);
  std::size_t unreachable = 0;
  for (std::size_t v = 0; v < network.node_count(); ++v) {
    const auto from = static_cast<sim::NodeId>(v);
    for (std::size_t ai = 0; ai < m; ++ai) {
      const auto dst = static_cast<sim::Address>(ai + 1);
      EXPECT_EQ(network.route_port(from, dst), ref.port[v][ai])
          << "node " << v << " address " << dst;
      EXPECT_EQ(network.hop_distance(from, dst), ref.dist[v][ai])
          << "node " << v << " address " << dst;
      if (ref.dist[v][ai] == -1) ++unreachable;
    }
  }
  for (std::size_t ai = 0; ai < m; ++ai) {
    const auto dst = static_cast<sim::Address>(ai + 1);
    EXPECT_EQ(network.route_port(network.node_of(dst), dst), -1);
  }
  return unreachable;
}

// A seeded random graph of routers, switches and hosts: a random spanning
// tree, extra edges that close cycles or double an existing link, and a
// separate component that no address of the main one can reach.
void build_random_graph(Network& network, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto add_random_node = [&](const std::string& name) -> sim::NodeId {
    switch (rng.below(3)) {
      case 0: return network.add_node<Router>(name).id();
      case 1: return network.add_node<Switch>(name).id();
      default: return network.add_node<Host>(name).id();
    }
  };
  const auto build_component = [&](std::size_t size, std::size_t extra_edges) {
    std::vector<sim::NodeId> ids;
    for (std::size_t i = 0; i < size; ++i) {
      ids.push_back(add_random_node("n" + std::to_string(network.node_count())));
      if (i > 0) network.connect(ids[rng.below(i)], ids.back(), LinkParams{});
    }
    for (std::size_t e = 0; e < extra_edges; ++e) {
      const sim::NodeId a = ids[rng.below(size)];
      const sim::NodeId b = ids[rng.below(size)];
      if (a != b) network.connect(a, b, LinkParams{});
    }
    // Every component holds at least one addressed host.
    auto& host = network.add_node<Host>("h" + std::to_string(network.node_count()));
    network.connect(ids[rng.below(size)], host.id(), LinkParams{});
  };
  build_component(8 + rng.below(40), 4 + rng.below(40));
  build_component(2 + rng.below(6), rng.below(4));
  // A parallel link between the first two linked nodes, and an isolated
  // host.
  network.connect(0, network.node(0).neighbor(0), LinkParams{});
  network.add_node<Host>("isolated");

  // Addresses in a shuffled order, so address order differs from node order.
  std::vector<sim::NodeId> hosts;
  for (std::size_t id = 0; id < network.node_count(); ++id) {
    if (network.node(static_cast<sim::NodeId>(id)).kind() == NodeKind::kHost) {
      hosts.push_back(static_cast<sim::NodeId>(id));
    }
  }
  rng.shuffle(hosts);
  for (const sim::NodeId h : hosts) {
    static_cast<Host&>(network.node(h)).set_address(network.assign_address(h));
  }
}

TEST(RouteTable, MatchesReferenceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Simulator simulator;
    Network network(simulator);
    build_random_graph(network, seed);
    network.compute_routes();
    // The second component and the isolated host cannot reach the rest.
    EXPECT_GT(expect_routes_match_reference(network), 0u);
  }
}

TEST(RouteTable, ParallelLinksRouteOverTheFirst) {
  // x =(two links)= y -- h: x's route to h takes the first x-y link, and
  // y's route to the host behind x takes y's end of that same first link.
  sim::Simulator simulator;
  Network network(simulator);
  auto& g = network.add_node<Host>("g");
  auto& x = network.add_node<Router>("x");
  auto& y = network.add_node<Router>("y");
  auto& h = network.add_node<Host>("h");
  network.connect(g.id(), x.id(), LinkParams{});
  network.connect(y.id(), h.id(), LinkParams{});
  const auto [x_first, y_first] = network.connect(x.id(), y.id(), LinkParams{});
  network.connect(x.id(), y.id(), LinkParams{});
  g.set_address(network.assign_address(g.id()));
  h.set_address(network.assign_address(h.id()));
  network.compute_routes();
  EXPECT_EQ(network.route_port(x.id(), h.address()), x_first);
  EXPECT_EQ(network.route_port(y.id(), g.address()), y_first);
  expect_routes_match_reference(network);
}

TEST(RouteTable, MatchesReferenceOnHostSwitchRouterMix) {
  // Two access switches with three hosts each under a ring of four routers,
  // a server host on the far router, and a host wired straight to a router.
  sim::Simulator simulator;
  Network network(simulator);
  std::vector<Router*> ring;
  for (int i = 0; i < 4; ++i) {
    ring.push_back(&network.add_node<Router>("r" + std::to_string(i)));
  }
  for (int i = 0; i < 4; ++i) {
    network.connect(ring[i]->id(), ring[(i + 1) % 4]->id(), LinkParams{});
  }
  std::vector<Host*> hosts;
  for (int s = 0; s < 2; ++s) {
    auto& sw = network.add_node<Switch>("sw" + std::to_string(s));
    network.connect(ring[s]->id(), sw.id(), LinkParams{});
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(&network.add_node<Host>("h" + std::to_string(s * 3 + i)));
      network.connect(sw.id(), hosts.back()->id(), LinkParams{});
    }
  }
  auto& server = network.add_node<Host>("server");
  network.connect(ring[2]->id(), server.id(), LinkParams{});
  auto& direct = network.add_node<Host>("direct");
  network.connect(direct.id(), ring[3]->id(), LinkParams{});
  hosts.push_back(&server);
  hosts.push_back(&direct);
  for (Host* h : hosts) h->set_address(network.assign_address(h->id()));
  network.compute_routes();

  EXPECT_EQ(expect_routes_match_reference(network), 0u);
  // h0 -- sw0 -- r0 -- r1 -- r2 -- server (r0 -- r3 -- r2 is as long).
  EXPECT_EQ(network.hop_distance(hosts[0]->id(), server.address()), 5);
  EXPECT_EQ(network.hop_distance(hosts[0]->id(), hosts[1]->address()), 2);
  EXPECT_EQ(network.hop_distance(server.id(), server.address()), 0);
}

TEST(RouteTable, MatchesReferenceOnPaperTree) {
  sim::Simulator simulator;
  Network network(simulator);
  topo::TreeParams params;
  params.leaf_count = 300;
  util::Rng rng(1);
  const topo::Tree tree = topo::build_tree(network, rng, params);
  network.compute_routes();
  EXPECT_EQ(expect_routes_match_reference(network), 0u);
  EXPECT_EQ(address_count(network), tree.leaf_addrs.size() + tree.server_addrs.size());
}

}  // namespace
}  // namespace hbp::net
