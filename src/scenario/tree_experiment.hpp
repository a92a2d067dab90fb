// The full Section-8 simulation scenario: tree topology, roaming server
// pool, legitimate clients, spoofing attackers, and one of three defenses
// (none / Pushback / honeypot back-propagation).
//
// For Pushback and no-defense runs "legitimate traffic is uniformly
// distributed over all five servers" (Section 8.3): we express that by
// running the roaming schedule with k = N (all servers always active), so
// clients spread uniformly and no honeypot window ever opens.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/defense.hpp"
#include "pushback/agent.hpp"
#include "scenario/metrics.hpp"
#include "scenario/run_harness.hpp"
#include "topo/tree.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace hbp::scenario {

enum class Scheme { kNoDefense, kPushback, kHbp };
enum class AttackerPlacement { kClose, kFar, kEven };

std::string to_string(Scheme s);
std::string to_string(AttackerPlacement p);

struct TreeExperimentConfig : ObserveOptions {
  Scheme scheme = Scheme::kHbp;
  topo::TreeParams tree;

  // Roaming pool (Fig. 9 parameters).
  int k_active = 3;  // of tree.server_count
  double epoch_seconds = 10.0;
  sim::SimTime delta = sim::SimTime::millis(100);
  // γ must bound the real client->server delay including queueing (up to
  // ~15 hops x 10 ms plus a full bottleneck queue of ~50 ms).
  sim::SimTime gamma = sim::SimTime::millis(400);

  // Legitimate load: n_clients sharing ~legit_load of the bottleneck.
  int n_clients = 75;
  double legit_load = 0.9;

  // Attack.
  int n_attackers = 25;
  double attacker_rate_bps = 1.0e6;
  AttackerPlacement placement = AttackerPlacement::kEven;
  double attack_start = 5.0;
  double attack_end = 95.0;
  std::optional<double> onoff_t_on;   // on-off attack when set
  double onoff_t_off = 0.0;
  std::optional<double> follower_delay;  // follower attack when set

  double sim_seconds = 100.0;
  int packet_size = 1000;

  // Benign background probes (Section 5.3 false-positive study): when > 0,
  // five unused leaf hosts send Poisson probes at this rate (probes/s each)
  // to random servers for the whole run.
  double benign_probe_rate = 0.0;

  // TCP downloads (Section 3 damage model): bulk TCP transfers from
  // bystander download servers behind the bottleneck to unused leaf hosts.
  // Their ACKs cross the attacked direction of the bottleneck — "if TCP
  // ACK packets from clients to servers get dropped due to the attack, the
  // throughput of TCP flows is degraded."
  int tcp_downloads = 0;

  // Defense knobs.
  core::HbpParams hbp;
  double hbp_deploy_fraction = 1.0;  // <1 => random partial deployment
  pushback::PushbackParams pb;
  bool pb_weighted_by_hosts = false;  // Level-k max-min ablation
};

struct TreeResult : RunRecord {
  double mean_client_throughput = 0.0;  // fraction of bottleneck, attack window
  double baseline_throughput = 0.0;     // before the attack
  std::vector<ThroughputMeter::Point> timeline;

  std::size_t attackers = 0;
  std::size_t captured = 0;
  std::size_t false_captures = 0;
  double mean_capture_delay = -1.0;  // from attack start; -1 if none
  double max_capture_delay = -1.0;

  // TCP download goodput (bits/s) before and during the attack window
  // (zero when tcp_downloads == 0).
  double tcp_goodput_before = 0.0;
  double tcp_goodput_during = 0.0;

  std::uint64_t control_messages = 0;
  std::uint64_t hbp_activations = 0;
  std::uint64_t hbp_false_activations = 0;
  std::uint64_t pushback_requests = 0;
  std::uint64_t pushback_limited_drops = 0;
};

TreeResult run_tree_experiment(const TreeExperimentConfig& config,
                               std::uint64_t seed);

// Multi-seed replication (optionally parallel across a pool).
struct TreeSummary : RunTotals {
  util::RunningStats throughput;
  util::RunningStats capture_delay;
  util::RunningStats capture_fraction;
  util::RunningStats false_captures;
};
TreeSummary run_replicated(const TreeExperimentConfig& config, int seeds,
                           std::uint64_t base_seed,
                           util::ThreadPool* pool = nullptr);

}  // namespace hbp::scenario
