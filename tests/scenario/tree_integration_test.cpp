// Full-scenario integration tests: the Section 8 tree experiment at reduced
// scale, all three defense schemes, plus cross-cutting invariants
// (determinism, packet conservation, on-off and follower attack wiring,
// partial deployment).
#include "scenario/tree_experiment.hpp"

#include <gtest/gtest.h>

namespace hbp::scenario {
namespace {

TreeExperimentConfig small_config() {
  TreeExperimentConfig config;
  config.tree.leaf_count = 120;
  config.n_clients = 40;
  config.n_attackers = 10;
  config.attacker_rate_bps = 1.0e6;
  config.sim_seconds = 60.0;
  config.attack_start = 5.0;
  config.attack_end = 55.0;
  return config;
}

TEST(TreeExperiment, HbpCapturesAllAttackersWithoutFalsePositives) {
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  const auto r = run_tree_experiment(config, 21);
  EXPECT_EQ(r.captured, r.attackers);
  EXPECT_EQ(r.false_captures, 0u);
  EXPECT_GT(r.mean_capture_delay, 0.0);
  EXPECT_GT(r.hbp_activations, 0u);
  EXPECT_EQ(r.hbp_false_activations, 0u);
}

TEST(TreeExperiment, SchemeOrderingUnderAttack) {
  auto config = small_config();
  config.scheme = Scheme::kNoDefense;
  const auto none = run_tree_experiment(config, 3);
  config.scheme = Scheme::kHbp;
  const auto hbp = run_tree_experiment(config, 3);

  // Both serve ~90% before the attack.
  EXPECT_NEAR(none.baseline_throughput, 0.9, 0.08);
  EXPECT_NEAR(hbp.baseline_throughput, 0.9, 0.08);
  // Under attack HBP clearly beats no defense.
  EXPECT_GT(hbp.mean_client_throughput, none.mean_client_throughput + 0.2);
  // And no defense collapses toward the proportional share.
  EXPECT_LT(none.mean_client_throughput, 0.5);
}

TEST(TreeExperiment, PushbackCreatesSessionsAndLimits) {
  auto config = small_config();
  config.scheme = Scheme::kPushback;
  const auto r = run_tree_experiment(config, 4);
  EXPECT_GT(r.pushback_requests, 0u);
  EXPECT_GT(r.pushback_limited_drops, 0u);
  EXPECT_EQ(r.captured, 0u);  // pushback never captures hosts
}

TEST(TreeExperiment, DeterministicForSameSeed) {
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  const auto a = run_tree_experiment(config, 77);
  const auto b = run_tree_experiment(config, 77);
  EXPECT_DOUBLE_EQ(a.mean_client_throughput, b.mean_client_throughput);
  EXPECT_EQ(a.captured, b.captured);
  EXPECT_DOUBLE_EQ(a.mean_capture_delay, b.mean_capture_delay);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(TreeExperiment, DifferentSeedsDiffer) {
  auto config = small_config();
  const auto a = run_tree_experiment(config, 1);
  const auto b = run_tree_experiment(config, 2);
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(TreeExperiment, ThroughputRecoversAfterCaptures) {
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  const auto r = run_tree_experiment(config, 9);
  ASSERT_EQ(r.captured, r.attackers);
  // Compare the first attack seconds with the tail end of the attack.
  double early = 0, late = 0;
  int early_n = 0, late_n = 0;
  for (const auto& p : r.timeline) {
    if (p.t_seconds >= 6 && p.t_seconds < 12) {
      early += p.fraction;
      ++early_n;
    }
    if (p.t_seconds >= 45 && p.t_seconds < 54) {
      late += p.fraction;
      ++late_n;
    }
  }
  EXPECT_GT(late / late_n, early / early_n);
  EXPECT_GT(late / late_n, 0.8);  // recovered close to the 90% baseline
}

TEST(TreeExperiment, OnOffAttackersStillCapturedByProgressive) {
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  config.n_attackers = 4;
  config.onoff_t_on = 3.0;
  config.onoff_t_off = 7.0;
  config.sim_seconds = 200.0;
  config.attack_end = 195.0;
  config.hbp.progressive = true;
  const auto r = run_tree_experiment(config, 31);
  EXPECT_GT(r.captured, 0u);
  EXPECT_EQ(r.false_captures, 0u);
}

TEST(TreeExperiment, FollowerAttackWiredToSchedule) {
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  config.n_attackers = 4;
  config.follower_delay = 0.5;
  config.sim_seconds = 120.0;
  config.attack_end = 115.0;
  const auto r = run_tree_experiment(config, 13);
  // A fast follower evades within the epoch; captures need several epochs
  // and may stay partial — but nothing innocent is ever cut.
  EXPECT_EQ(r.false_captures, 0u);
}

TEST(TreeExperiment, PartialDeploymentStillCapturesSome) {
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  config.hbp_deploy_fraction = 0.6;
  const auto r = run_tree_experiment(config, 15);
  EXPECT_EQ(r.false_captures, 0u);
  EXPECT_GT(r.captured, 0u);       // bridging keeps it partially effective
  EXPECT_LE(r.captured, r.attackers);
}

TEST(TreeExperiment, LevelKWeightingImprovesPushbackForCloseAttackers) {
  auto config = small_config();
  config.scheme = Scheme::kPushback;
  config.placement = AttackerPlacement::kClose;
  const auto plain = run_tree_experiment(config, 8);
  config.pb_weighted_by_hosts = true;
  const auto weighted = run_tree_experiment(config, 8);
  // Weighting shares by the host count behind each port is exactly the
  // Level-k fix for the close-attacker pathology (Section 2, Mitigation).
  EXPECT_GT(weighted.mean_client_throughput,
            plain.mean_client_throughput);
}

TEST(TreeExperiment, MultipleVictimsTracedConcurrently) {
  // Attackers pick targets uniformly over the five servers; captures must
  // be attributed to more than one honeypot address (independent session
  // trees running at once).
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  config.n_attackers = 15;
  config.sim_seconds = 80.0;
  config.attack_end = 75.0;
  // Count distinct dst addresses among capture events via a listener-free
  // route: run once and inspect the recorder events indirectly through the
  // capture count (15 attackers over 5 servers => >= 2 distinct targets
  // with overwhelming probability, so full capture implies concurrency).
  const auto r = run_tree_experiment(config, 23);
  EXPECT_EQ(r.captured, r.attackers);
  EXPECT_EQ(r.false_captures, 0u);
}

TEST(TreeExperiment, BenignProbesVsActivationThreshold) {
  // Section 5.3 false positives: benign probes land in honeypot windows.
  // With threshold 1 every stray probe wakes the defense (false
  // activations); a higher threshold suppresses them.  No attack runs.
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  config.n_attackers = 1;
  config.attack_start = 59.0;  // effectively no attack
  config.attack_end = 59.5;
  config.benign_probe_rate = 2.0;

  config.hbp.activation_threshold = 1;
  const auto trigger_happy = run_tree_experiment(config, 5);
  EXPECT_GT(trigger_happy.hbp_false_activations, 0u);

  config.hbp.activation_threshold = 100;
  const auto cautious = run_tree_experiment(config, 5);
  EXPECT_EQ(cautious.hbp_activations, 0u);
  EXPECT_EQ(cautious.hbp_false_activations, 0u);
}

TEST(TreeExperiment, EarlyDirectRequestsNeverDivertActiveTraffic) {
  // Progressive direct requests arrive before the honeypot window opens,
  // while the server is still active and legitimate clients still send to
  // it.  The session-window gating must keep those packets flowing and
  // keep innocents uncaptured — under partial deployment the broadcast
  // bridging also hands sessions to client-only stub ASs, the worst case.
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  config.hbp_deploy_fraction = 0.5;
  config.hbp.progressive = true;
  config.sim_seconds = 120.0;
  config.attack_end = 115.0;
  config.onoff_t_on = 2.0;  // stalls propagation => many direct requests
  config.onoff_t_off = 8.0;
  for (const std::uint64_t seed : {2ull, 5ull, 8ull}) {
    const auto r = run_tree_experiment(config, seed);
    EXPECT_EQ(r.false_captures, 0u) << "seed " << seed;
  }
}

TEST(TreeExperiment, TcpDownloadsCollapseFromAckLossAndRecoverWithHbp) {
  // Section 3 damage model: the downloads' data direction has spare
  // capacity; only their ACKs cross the attacked direction.
  auto config = small_config();
  config.tcp_downloads = 2;
  config.sim_seconds = 90.0;
  config.attack_start = 25.0;
  config.attack_end = 85.0;
  config.n_attackers = 12;
  // Cumulative ACKs shrug off moderate loss; the collapse needs a heavy
  // flood (~75% loss on the ACK direction), as in the paper's scenarios.
  config.attacker_rate_bps = 5.0e6;

  config.scheme = Scheme::kNoDefense;
  const auto none = run_tree_experiment(config, 6);
  EXPECT_GT(none.tcp_goodput_before, 2e6);
  EXPECT_LT(none.tcp_goodput_during, 0.6 * none.tcp_goodput_before);

  config.scheme = Scheme::kHbp;
  const auto hbp = run_tree_experiment(config, 6);
  EXPECT_GT(hbp.tcp_goodput_during, 1.5 * none.tcp_goodput_during);
}

TEST(TreeExperiment, DownloadGoodputSurvivesFalselyCapturedProbers) {
  // Benign probers that stray into honeypot windows get captured (Section
  // 5.3 false positives).  Each must sit on its own leaf: a prober placed
  // on a download receiver's host would cut that download off with it.
  TreeExperimentConfig config;
  config.tree.leaf_count = 120;
  config.sim_seconds = 40.0;
  config.attack_start = 5.0;
  config.attack_end = 35.0;
  config.tcp_downloads = 5;
  const auto quiet = run_tree_experiment(config, 3);

  config.benign_probe_rate = 5.0;
  const auto probed = run_tree_experiment(config, 3);
  ASSERT_GT(probed.false_captures, 0u);
  EXPECT_GT(quiet.tcp_goodput_during, 1e6);
  EXPECT_GT(probed.tcp_goodput_during, 0.5 * quiet.tcp_goodput_during);
}

TEST(TreeExperiment, RolesBeyondTheLeafCountAbort) {
  // Clients, attackers, download receivers and probers each need a leaf
  // of their own; asking for more than the tree has is a config error.
  auto config = small_config();  // 40 clients + 10 attackers of 120 leaves
  config.tcp_downloads = 71;
  EXPECT_DEATH(run_tree_experiment(config, 1), "exceed the leaves");
  config.tcp_downloads = 66;
  config.benign_probe_rate = 1.0;  // adds five probers
  EXPECT_DEATH(run_tree_experiment(config, 1), "exceed the leaves");
}

TEST(TreeExperiment, ControlMessageOverheadScalesWithAttackers) {
  // Section 5.3: "Although the number of messages is linear in the number
  // of attackers, the number of attack messages suppressed by the scheme
  // is much higher."
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  config.n_attackers = 4;
  const auto few = run_tree_experiment(config, 2);
  config.n_attackers = 16;
  const auto many = run_tree_experiment(config, 2);
  // Roughly linear: 4x the attackers => between 1.5x and 8x the messages.
  EXPECT_GT(many.control_messages, few.control_messages * 3 / 2);
  EXPECT_LT(many.control_messages, few.control_messages * 8);
  // And both are dwarfed by the attack packets suppressed.
  const double attack_packets =
      16 * (config.attack_end - config.attack_start) *
      config.attacker_rate_bps / 8000.0;
  EXPECT_LT(static_cast<double>(many.control_messages),
            0.05 * attack_packets);
}

TEST(ToString, SchemeAndPlacementNames) {
  EXPECT_EQ(to_string(Scheme::kHbp), "Honeypot Back-propagation");
  EXPECT_EQ(to_string(Scheme::kPushback), "Pushback");
  EXPECT_EQ(to_string(Scheme::kNoDefense), "No Defense");
  EXPECT_EQ(to_string(AttackerPlacement::kClose), "Close");
  EXPECT_EQ(to_string(AttackerPlacement::kFar), "Far");
  EXPECT_EQ(to_string(AttackerPlacement::kEven), "Evenly Distributed");
}

TEST(TreeExperiment, ReplicatedSummaryAggregates) {
  auto config = small_config();
  config.scheme = Scheme::kHbp;
  config.tree.leaf_count = 80;
  config.n_clients = 25;
  config.n_attackers = 5;
  config.sim_seconds = 40.0;
  config.attack_end = 35.0;
  const auto summary = run_replicated(config, 3, 100);
  EXPECT_EQ(summary.throughput.count(), 3u);
  EXPECT_GT(summary.throughput.mean(), 0.3);
  EXPECT_DOUBLE_EQ(summary.false_captures.mean(), 0.0);
}

}  // namespace
}  // namespace hbp::scenario
