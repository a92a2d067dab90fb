#include "marking/ppm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "net/host.hpp"
#include "topo/string_topo.hpp"
#include "traffic/cbr.hpp"

namespace hbp::marking {
namespace {

struct PpmFixture : public ::testing::Test {
  void SetUp() override { build(6); }

  void collect(const sim::Packet& p) { collector.collect(p); }

  void build(int hops) {
    simulator = std::make_unique<sim::Simulator>();
    network = std::make_unique<net::Network>(*simulator);
    topo::StringParams sp;
    sp.hops = hops;
    topo = topo::build_string(*network, sp);
    network->compute_routes();

    rng = std::make_unique<util::Rng>(31);
    // PPM on every router: gateway + the chain.
    markers.clear();
    marker_for.clear();
    auto install = [&](sim::NodeId r) {
      markers.push_back(std::make_unique<PpmMarker>(
          static_cast<net::Router&>(network->node(r)), *rng, params));
      marker_for[r] = markers.back().get();
    };
    install(topo.gateway);
    for (const sim::NodeId r : topo.chain_routers) install(r);

    auto& server = static_cast<net::Host&>(network->node(topo.server));
    server.set_receiver(
        net::Host::ReceiveFn::bind<&PpmFixture::collect>(*this));

    attacker_rng = std::make_unique<util::Rng>(32);
    traffic::CbrParams cbr;
    cbr.rate_bps = 0.8e6;  // 100 packets/s
    cbr.is_attack = true;
    attacker = std::make_unique<traffic::CbrSource>(
        *simulator, static_cast<net::Host&>(network->node(topo.attacker_host)),
        *attacker_rng, cbr, [this] { return topo.server_addr; });
    attacker->start();
  }

  // The true attack path, victim-side first.
  std::vector<std::int32_t> true_path() const {
    std::vector<std::int32_t> path{topo.gateway};
    for (const sim::NodeId r : topo.chain_routers) {
      path.push_back(static_cast<std::int32_t>(r));
    }
    return path;
  }

  std::set<std::int32_t> real_routers() const {
    std::set<std::int32_t> ids{topo.gateway};
    for (const sim::NodeId r : topo.chain_routers) {
      ids.insert(static_cast<std::int32_t>(r));
    }
    return ids;
  }

  PpmParams params;
  std::unique_ptr<sim::Simulator> simulator;
  std::unique_ptr<net::Network> network;
  topo::StringTopo topo;
  std::unique_ptr<util::Rng> rng;
  std::vector<std::unique_ptr<PpmMarker>> markers;
  std::map<sim::NodeId, PpmMarker*> marker_for;
  PpmCollector collector;
  std::unique_ptr<util::Rng> attacker_rng;
  std::unique_ptr<traffic::CbrSource> attacker;
};

TEST_F(PpmFixture, MarkingProbabilityRoughlyQ) {
  simulator->run_until(sim::SimTime::seconds(100));  // ~10000 packets
  // Fraction of packets carrying any mark: 1 - (1-q)^7 ~ 0.25 for 7 routers.
  const double marked_fraction =
      static_cast<double>(collector.marked_packets()) /
      static_cast<double>(collector.packets_seen());
  EXPECT_NEAR(marked_fraction, 1.0 - std::pow(1.0 - 0.04, 7), 0.03);
}

TEST_F(PpmFixture, ReconstructsTheAttackPath) {
  simulator->run_until(sim::SimTime::seconds(200));  // ~20000 packets
  EXPECT_TRUE(collector.path_found(true_path()))
      << "edges collected: " << collector.edges().size();
  EXPECT_EQ(collector.false_paths(real_routers()), 0u);
}

TEST_F(PpmFixture, PacketCostGrowsWithDistance) {
  // Run until reconstruction succeeds, in 1-second steps; verify the
  // packet count is within a small factor of the analytical expectation.
  const auto path = true_path();
  double t = 0;
  while (!collector.path_found(path) && t < 2000) {
    t += 1.0;
    simulator->run_until(sim::SimTime::seconds(t));
  }
  ASSERT_TRUE(collector.path_found(path));
  const double expected = expected_packets_for_path(0.04, 7);
  EXPECT_LT(static_cast<double>(collector.packets_seen()), 20.0 * expected);
}

TEST_F(PpmFixture, CompromisedRouterPoisonsReconstruction) {
  // A subverted mid-chain router injects forged distance-0 edges: the
  // victim reconstructs non-existent paths — the Section 2 criticism of
  // marking schemes ("vulnerable to compromised routers, which can inject
  // forged markings to increase the number of false positives").
  marker_for[topo.chain_routers[2]]->compromise(
      8, static_cast<std::int32_t>(topo.chain_routers[1]));
  simulator->run_until(sim::SimTime::seconds(120));
  EXPECT_GT(collector.false_paths(real_routers()), 0u);
}

TEST_F(PpmFixture, AttackerSeededMarksCannotFakeProximity) {
  // An attacker pre-loading a forged distance-0 mark gets it incremented
  // by every honest router, so it arrives with distance >= path length and
  // never competes with genuine near-victim edges.
  sim::Packet p;
  p.type = sim::PacketType::kData;
  p.dst = topo.server_addr;
  p.size_bytes = 100;
  p.edge_start = 424242;
  p.edge_end = sim::kNoMark;
  p.edge_distance = 0;
  static_cast<net::Host&>(network->node(topo.attacker_host)).send(std::move(p));
  simulator->run_until(sim::SimTime::seconds(1));
  for (const auto& e : collector.edges()) {
    if (e.start == 424242) {
      // Either overwritten (gone) or pushed far away.
      EXPECT_GE(e.distance, 6);
    }
  }
}

TEST(PpmExpectation, MatchesClassicFormulaShape) {
  // Monotone growth in distance; q = 1/25 at d = 10 needs ~ hundreds.
  double prev = 0;
  for (int d = 1; d <= 20; ++d) {
    const double e = expected_packets_for_path(0.04, d);
    EXPECT_GT(e, prev * 0.99);
    prev = e;
  }
  EXPECT_GT(expected_packets_for_path(0.04, 10), 50.0);
}

}  // namespace
}  // namespace hbp::marking
