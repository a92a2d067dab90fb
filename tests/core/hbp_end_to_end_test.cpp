// End-to-end honeypot back-propagation tests on the string topology
// (Section 8.2 setting): traceback through a chain of ASs down to the
// attacker's switch port, with spoofed sources, clients as bystanders,
// message forgery, compromised edge routers, partial deployment, and the
// tunneling/marking ingress-identification modes.
#include <gtest/gtest.h>

#include "scenario/string_experiment.hpp"

#include <map>
#include <memory>
#include <set>
#include <utility>

#include "core/defense.hpp"
#include "honeypot/schedule.hpp"
#include "net/control_plane.hpp"
#include "net/network.hpp"
#include "topo/string_topo.hpp"
#include "trace/tracer.hpp"
#include "traffic/cbr.hpp"
#include "util/rng.hpp"

namespace hbp::core {
namespace {

// A hand-wired harness around the string topology so individual tests can
// poke at defense internals (the scenario::run_string_experiment wrapper is
// exercised too, further below).
struct HbpStringFixture : public ::testing::Test {
  void build(int hops, bool with_client, const HbpParams& hbp_params,
             double p = 0.5) {
    topo::StringParams sp;
    sp.hops = hops;
    sp.with_client = with_client;
    topo = topo::build_string(network, sp);
    network.compute_routes();

    chain = std::make_shared<honeypot::HashChain>(
        util::Sha256::hash("e2e"), 1024);
    schedule = std::make_unique<honeypot::BernoulliSchedule>(
        chain, p, sim::SimTime::seconds(5));
    honeypot::ServerPoolParams pool_params;
    pool_params.delta = sim::SimTime::millis(50);
    pool_params.gamma = sim::SimTime::millis(25);
    pool = std::make_unique<honeypot::ServerPool>(
        simulator, network, *schedule, std::vector<sim::NodeId>{topo.server},
        std::vector<sim::Address>{topo.server_addr}, store, pool_params);

    net::ControlPlane::Params cp;
    cp.per_hop_latency = sim::SimTime::millis(50);
    cp.jitter_fraction = 0.0;
    control = std::make_unique<net::ControlPlane>(simulator, cp);

    defense = std::make_unique<HbpDefense>(simulator, network, *control,
                                           *pool, topo.as_map, hbp_params);
    defense->start();
    pool->start();
  }

  void attack(double rate_bps = 0.8e6) {
    traffic::CbrParams params;
    params.rate_bps = rate_bps;
    params.is_attack = true;
    attacker = std::make_unique<traffic::CbrSource>(
        simulator, static_cast<net::Host&>(network.node(topo.attacker_host)),
        rng, params, [this] { return topo.server_addr; });
    attacker->start();
  }

  void legit_client(double rate_bps = 0.4e6) {
    // A plain client that knows the schedule: sends only when the server
    // is active (stand-in for a roaming client in the 1-server string).
    traffic::CbrParams params;
    params.rate_bps = rate_bps;
    client = std::make_unique<traffic::CbrSource>(
        simulator, static_cast<net::Host&>(network.node(topo.client_host)),
        rng, params, [this]() -> sim::Address {
          const auto epoch = schedule->epoch_of(simulator.now());
          return schedule->is_active(0, epoch) ? topo.server_addr : 0;
        });
    client->start();
  }

  struct DivertStamps {
    std::size_t lied = 0;      // at the compromised router
    std::size_t upstream = 0;  // honest, from an upstream cross link
    std::size_t intra = 0;     // honest, from a port inside the AS
  };

  // Checks that every traced divert carries the stamp its ingress port
  // calls for: `lie` at the compromised router `liar`, the upstream cross
  // link's edge id at an honest router, and kNoMark on a port inside the
  // AS.
  DivertStamps check_divert_stamps(const trace::Tracer& tracer,
                                   sim::NodeId liar, int lie) const {
    DivertStamps counts;
    tracer.for_each([&](const sim::TraceEvent& e) {
      if (e.verb != sim::TraceVerb::kDivert) return;
      if (e.node == liar) {
        EXPECT_EQ(e.b, lie) << "divert on port " << e.a;
        ++counts.lied;
        return;
      }
      const topo::AsInfo& info = topo.as_map.info(network.node(e.node).as_id());
      int expected = sim::kNoMark;
      for (const topo::CrossLink& cl : info.cross_links) {
        if (cl.router == e.node && cl.port == e.a && cl.upstream) {
          expected = cl.edge_id;
        }
      }
      EXPECT_EQ(e.b, expected) << "divert at node " << e.node << " port "
                               << e.a;
      ++(expected == sim::kNoMark ? counts.intra : counts.upstream);
    });
    return counts;
  }

  sim::Simulator simulator;
  net::Network network{simulator};
  topo::StringTopo topo;
  std::shared_ptr<honeypot::HashChain> chain;
  std::unique_ptr<honeypot::BernoulliSchedule> schedule;
  honeypot::CheckpointStore store;
  std::unique_ptr<honeypot::ServerPool> pool;
  std::unique_ptr<net::ControlPlane> control;
  std::unique_ptr<HbpDefense> defense;
  std::unique_ptr<traffic::CbrSource> attacker;
  std::unique_ptr<traffic::CbrSource> client;
  util::Rng rng{17};
};

TEST_F(HbpStringFixture, CapturesSpoofingAttacker) {
  build(5, false, HbpParams{});
  trace::Tracer tracer;
  tracer.attach(simulator, &network);
  attack();
  simulator.run_until(sim::SimTime::seconds(120));
  // Transit edge routers stamp their upstream edge id; the stub's access
  // router sees the attack on its switch port and stamps nothing.
  const DivertStamps stamps =
      check_divert_stamps(tracer, sim::kInvalidNode, sim::kNoMark);
  EXPECT_GT(stamps.upstream, 0u);
  EXPECT_GT(stamps.intra, 0u);
  ASSERT_EQ(defense->captures().size(), 1u);
  EXPECT_EQ(defense->captures()[0].host, topo.attacker_host);
  EXPECT_GT(defense->activations(), 0u);
  EXPECT_EQ(defense->false_activations(), 0u);
  // The attacker's switch port is actually closed.
  auto& sw = static_cast<net::Switch&>(network.node(topo.attacker_switch));
  EXPECT_EQ(sw.closed_port_count(), 1u);
}

// The wave's cause reaches its effects: each AS session keeps the cause of
// the request that opened it, and every divert and capture in that AS
// carries it, so a cause query (`trace_query --id=`) follows the wave from
// the honeypot hit to the capture.  Each upstream session's cause is the
// uid of a divert that triggered it downstream.
TEST_F(HbpStringFixture, DivertAndCaptureCarryTheirSessionCause) {
  build(5, false, HbpParams{});
  trace::Tracer tracer;
  tracer.attach(simulator, &network);
  attack();
  simulator.run_until(sim::SimTime::seconds(120));
  ASSERT_EQ(defense->captures().size(), 1u);

  // (AS, epoch) -> cause of the session_open that opened the session.
  std::map<std::pair<net::AsId, std::size_t>, std::uint64_t> opened;
  std::set<std::uint64_t> divert_uids;
  std::set<net::AsId> divert_ases;
  std::size_t diverts = 0, captures = 0, upstream_opens = 0;
  const net::AsId home = network.node(topo.server).as_id();
  tracer.for_each([&](const sim::TraceEvent& e) {
    switch (e.verb) {
      case sim::TraceVerb::kSessionOpen: {
        const auto key = std::make_pair(static_cast<net::AsId>(e.a),
                                        static_cast<std::size_t>(e.b));
        if (opened.try_emplace(key, e.cause).second && e.a != home) {
          EXPECT_TRUE(divert_uids.contains(e.cause))
              << "AS " << e.a << " opened by cause " << e.cause;
          ++upstream_opens;
        }
        return;
      }
      case sim::TraceVerb::kDivert:
      case sim::TraceVerb::kCapture: {
        const net::AsId as = network.node(e.node).as_id();
        const auto it = opened.find({as, schedule->epoch_of(e.t)});
        ASSERT_NE(it, opened.end()) << sim::verb_name(e.verb) << " in AS "
                                    << as << " with no session";
        EXPECT_NE(e.cause, 0u);
        EXPECT_EQ(e.cause, it->second)
            << sim::verb_name(e.verb) << " at node " << e.node;
        if (e.verb == sim::TraceVerb::kCapture) {
          EXPECT_EQ(e.id, e.cause);
          ++captures;
        } else {
          divert_uids.insert(e.id);
          divert_ases.insert(as);
          ++diverts;
        }
        return;
      }
      default:
        return;
    }
  });
  EXPECT_GT(diverts, 0u);
  EXPECT_GT(divert_ases.size(), 2u);  // the wave crossed several ASs
  EXPECT_GT(upstream_opens, 0u);
  EXPECT_EQ(captures, 1u);
}

TEST_F(HbpStringFixture, CaptureStopsAttackTraffic) {
  build(4, false, HbpParams{});
  attack();
  simulator.run_until(sim::SimTime::seconds(120));
  ASSERT_EQ(defense->captures().size(), 1u);
  const auto& server = static_cast<net::Host&>(network.node(topo.server));
  const auto received_at_capture_plus = server.packets_received();
  simulator.run_until(sim::SimTime::seconds(160));
  // No further attack packets reach the server after the port closed.
  EXPECT_EQ(server.packets_received(), received_at_capture_plus);
}

TEST_F(HbpStringFixture, InnocentClientNeverCaptured) {
  build(5, true, HbpParams{});
  attack();
  legit_client();
  simulator.run_until(sim::SimTime::seconds(200));
  ASSERT_GE(defense->captures().size(), 1u);
  for (const auto& c : defense->captures()) {
    EXPECT_EQ(c.host, topo.attacker_host);
  }
  // The client's port stays open.
  auto& sw = static_cast<net::Switch&>(network.node(topo.attacker_switch));
  EXPECT_EQ(sw.closed_port_count(), 1u);
}

TEST_F(HbpStringFixture, ActivationThresholdSuppressesSparseTraffic) {
  HbpParams params;
  params.activation_threshold = 1000;  // effectively unreachable
  build(4, false, params);
  attack(0.08e6);  // 10 packets/s: ~50 per honeypot window < 1000
  simulator.run_until(sim::SimTime::seconds(100));
  EXPECT_EQ(defense->activations(), 0u);
  EXPECT_TRUE(defense->captures().empty());
}

TEST_F(HbpStringFixture, ForgedRequestRejected) {
  build(4, false, HbpParams{});
  attack();
  // Inject an unauthenticated request claiming a session in AS 2.
  HoneypotRequest forged;
  forged.dst = topo.server_addr;
  forged.epoch = 1;
  forged.window.end = sim::SimTime::seconds(1000);
  forged.from_as = 1;
  forged.to_as = 2;
  // mac left zero — wrong.
  defense->deliver(forged);
  EXPECT_EQ(defense->forged_rejected(), 1u);
  EXPECT_FALSE(defense->hsm(2)->session_active(topo.server_addr));
}

TEST_F(HbpStringFixture, ForgedCancelCannotTearDownSessions) {
  build(4, false, HbpParams{});
  attack();
  // Run until a session exists somewhere past the home AS.
  simulator.run_until(sim::SimTime::seconds(60));
  HoneypotCancel forged;
  forged.dst = topo.server_addr;
  forged.epoch = 99;
  forged.from_as = 1;
  forged.to_as = topo.server_as;
  defense->deliver(forged);
  EXPECT_GE(defense->forged_rejected(), 1u);
}

TEST_F(HbpStringFixture, CompromisedEdgeRouterCannotCauseFalseCapture) {
  // The edge router of the middle AS stamps a bogus edge id on every
  // diverted packet.  Back-propagation into the wrong branch dies out (no
  // matching cross link / no packets there); the attacker may escape but
  // nobody innocent is captured.
  build(5, true, HbpParams{});
  trace::Tracer tracer;
  tracer.attach(simulator, &network);
  const sim::NodeId liar = topo.chain_routers[2];
  const net::AsId mid_as = network.node(liar).as_id();
  // Prime: create the HSM before compromising its filter-to-be.
  defense->hsm(mid_as)->compromise_edge_router(liar, 777);
  attack();
  legit_client();
  simulator.run_until(sim::SimTime::seconds(150));
  for (const auto& c : defense->captures()) {
    EXPECT_EQ(c.host, topo.attacker_host);
  }

  const DivertStamps stamps = check_divert_stamps(tracer, liar, 777);
  EXPECT_GT(stamps.lied, 0u);
  EXPECT_GT(stamps.upstream, 0u);
}

TEST_F(HbpStringFixture, PartialDeploymentBridgesGaps) {
  // ASs 2 and 3 (middle of the chain) do not deploy; requests must bridge
  // over them via routing-option broadcast and still reach the stub.
  HbpParams params;
  std::set<net::AsId> deploying{0, 1, 4, 5};
  params.deployment = DeploymentPolicy::explicit_set(deploying);
  build(5, false, params);
  attack();
  simulator.run_until(sim::SimTime::seconds(200));
  EXPECT_GT(defense->bridged_messages(), 0u);
  ASSERT_EQ(defense->captures().size(), 1u);
  EXPECT_EQ(defense->captures()[0].host, topo.attacker_host);
}

TEST_F(HbpStringFixture, NoDeploymentAtStubMeansNoCapture) {
  HbpParams params;
  std::set<net::AsId> deploying{0, 1, 2, 3, 4};  // stub AS 5 missing
  params.deployment = DeploymentPolicy::explicit_set(deploying);
  build(5, false, params);
  attack();
  simulator.run_until(sim::SimTime::seconds(150));
  EXPECT_TRUE(defense->captures().empty());
}

TEST_F(HbpStringFixture, SessionsTornDownAfterEpoch) {
  build(4, false, HbpParams{});
  attack();
  simulator.run_until(sim::SimTime::seconds(120));
  // After capture the attack stream is gone; once the last honeypot window
  // cancels, no HSM session should persist.
  simulator.run_until(sim::SimTime::seconds(140));
  std::size_t active = 0;
  for (std::size_t as = 0; as < topo.as_map.count(); ++as) {
    if (Hsm* hsm = defense->hsm(static_cast<net::AsId>(as))) {
      active += hsm->session_count();
    }
  }
  EXPECT_EQ(active, 0u);
}

TEST_F(HbpStringFixture, HoneypotRequestsCarryAuthenticatedWindow) {
  build(3, false, HbpParams{});
  attack();
  simulator.run_until(sim::SimTime::seconds(100));
  EXPECT_GT(control->messages_sent("honeypot_request"), 0u);
  EXPECT_GT(control->messages_sent("honeypot_cancel"), 0u);
  EXPECT_EQ(defense->forged_rejected(), 0u);
}

// The scenario-level wrapper used by the Fig. 6 bench.
TEST(StringExperiment, BasicSchemeCapturesWithinBound) {
  scenario::StringExperimentConfig config;
  config.m = 10.0;
  config.p = 0.5;
  config.h = 6;
  config.tau = 0.3;
  const auto summary = scenario::run_string_replicated(config, 5, 1);
  EXPECT_EQ(summary.captured, 5);
  // Eq. (3) upper bound: m (1/p - 1) = 10 s, plus one in-window traversal.
  EXPECT_LT(summary.capture_time.mean(), 10.0 + config.m);
}

TEST(StringExperiment, ProgressiveCapturesOnOffAttack) {
  scenario::StringExperimentConfig config;
  config.m = 10.0;
  config.p = 0.5;
  config.h = 8;
  config.tau = 0.5;
  config.progressive = true;
  // Burst much shorter than the full traversal (8 hops x ~0.58 s): basic
  // back-propagation can never finish within one burst.
  config.onoff_t_on = 1.2;
  config.onoff_t_off = 8.8;
  config.horizon_seconds = 4000.0;
  const auto result = scenario::run_string_experiment(config, 3);
  EXPECT_TRUE(result.captured);
  EXPECT_GT(result.reports, 0u);  // intermediate-AS reports were needed
}

TEST(StringExperiment, SurvivesControlPlaneLoss) {
  // Section 6 rule 1 explicitly covers lost intermediate reports
  // ("propagation is restarted" in the rare loss case); more generally the
  // per-epoch re-request makes the scheme self-healing under control
  // message loss.  20% loss must only slow capture down, not break it.
  scenario::StringExperimentConfig config;
  config.m = 10.0;
  config.p = 0.5;
  config.h = 5;
  config.tau = 0.3;
  config.progressive = true;
  config.control_loss_probability = 0.2;
  config.horizon_seconds = 4000.0;
  const auto summary = scenario::run_string_replicated(config, 5, 3);
  EXPECT_EQ(summary.captured, 5);
}

TEST(StringExperiment, DeterministicForSameSeed) {
  scenario::StringExperimentConfig config;
  config.h = 4;
  config.p = 0.5;
  const auto a = scenario::run_string_experiment(config, 11);
  const auto b = scenario::run_string_experiment(config, 11);
  EXPECT_EQ(a.captured, b.captured);
  EXPECT_DOUBLE_EQ(a.capture_seconds, b.capture_seconds);
  EXPECT_EQ(a.control_messages, b.control_messages);
}

}  // namespace
}  // namespace hbp::core
