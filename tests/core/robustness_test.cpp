// Robustness: the defense must tolerate arbitrary (hostile or corrupted)
// message sequences without crashing, capturing innocents, or leaking
// sessions — randomized protocol-level fuzzing against a live scenario.
#include <gtest/gtest.h>

#include <memory>

#include "core/defense.hpp"
#include "honeypot/schedule.hpp"
#include "net/control_plane.hpp"
#include "net/network.hpp"
#include "topo/string_topo.hpp"
#include "traffic/cbr.hpp"
#include "util/rng.hpp"

namespace hbp::core {
namespace {

class MessageFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageFuzz, RandomMessagesNeverCrashOrFrame) {
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::StringParams sp;
  sp.hops = 4;
  sp.with_client = true;
  const topo::StringTopo topo = topo::build_string(network, sp);
  network.compute_routes();

  auto chain = std::make_shared<honeypot::HashChain>(
      util::Sha256::hash("fuzz"), 512);
  honeypot::BernoulliSchedule schedule(chain, 0.5, sim::SimTime::seconds(5));
  honeypot::CheckpointStore store;
  honeypot::ServerPool pool(simulator, network, schedule,
                            {topo.server}, {topo.server_addr}, store,
                            honeypot::ServerPoolParams{});
  net::ControlPlane control(simulator, {});
  HbpDefense defense(simulator, network, control, pool, topo.as_map,
                     HbpParams{});
  defense.start();
  pool.start();

  util::Rng attacker_rng(GetParam());
  traffic::CbrParams cbr;
  cbr.rate_bps = 0.4e6;
  cbr.is_attack = true;
  traffic::CbrSource attacker(
      simulator, static_cast<net::Host&>(network.node(topo.attacker_host)),
      attacker_rng, cbr, [&topo] { return topo.server_addr; });
  attacker.start();

  // Interleave simulation progress with random message injections.
  util::Rng fuzz(GetParam() * 977 + 3);
  const auto as_count = static_cast<std::int64_t>(topo.as_map.count());
  for (int round = 0; round < 60; ++round) {
    simulator.run_until(simulator.now() + sim::SimTime::seconds(1));
    for (int i = 0; i < 5; ++i) {
      switch (fuzz.below(3)) {
        case 0: {
          HoneypotRequest m;
          m.dst = static_cast<sim::Address>(fuzz.below(10));
          m.epoch = fuzz.below(100);
          m.window.start = sim::SimTime::seconds(fuzz.uniform(0, 100));
          m.window.end = sim::SimTime::seconds(fuzz.uniform(0, 200));
          m.from_as = static_cast<net::AsId>(fuzz.range(-1, as_count));
          m.to_as = static_cast<net::AsId>(fuzz.range(0, as_count - 1));
          m.progressive_direct = fuzz.bernoulli(0.5);
          for (auto& b : m.mac) b = static_cast<std::uint8_t>(fuzz.below(256));
          defense.deliver(m);
          break;
        }
        case 1: {
          HoneypotCancel c;
          c.dst = static_cast<sim::Address>(fuzz.below(10));
          c.epoch = fuzz.below(100);
          c.from_as = static_cast<net::AsId>(fuzz.range(-1, as_count));
          c.to_as = static_cast<net::AsId>(fuzz.range(0, as_count - 1));
          c.from_server = fuzz.bernoulli(0.5);
          defense.deliver(c);
          break;
        }
        case 2: {
          IntermediateReport r;
          r.as = static_cast<net::AsId>(fuzz.range(0, as_count - 1));
          r.dst = static_cast<sim::Address>(fuzz.below(10));
          r.epoch = fuzz.below(100);
          r.stamped_at = sim::SimTime::seconds(fuzz.uniform(0, 60));
          defense.deliver(r);
          break;
        }
      }
    }
  }

  // Every unauthenticated injection was rejected; the genuine attacker was
  // still captured; the bystander client was never framed.
  EXPECT_GT(defense.forged_rejected(), 0u);
  for (const auto& c : defense.captures()) {
    EXPECT_EQ(c.host, topo.attacker_host);
  }
  EXPECT_GE(defense.captures().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzz, ::testing::Range<std::uint64_t>(1, 6));

}  // namespace
}  // namespace hbp::core
