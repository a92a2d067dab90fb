#include "scenario/tree_experiment.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "honeypot/client.hpp"
#include "net/control_plane.hpp"
#include "traffic/follower.hpp"
#include "traffic/onoff.hpp"
#include "traffic/probe.hpp"
#include "transport/tcp.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace hbp::scenario {

namespace {

// Unused leaf hosts that send benign probes when benign_probe_rate > 0.
constexpr int kBenignProbers = 5;

}  // namespace

std::string to_string(Scheme s) {
  switch (s) {
    case Scheme::kNoDefense: return "No Defense";
    case Scheme::kPushback: return "Pushback";
    case Scheme::kHbp: return "Honeypot Back-propagation";
  }
  return "?";
}

std::string to_string(AttackerPlacement p) {
  switch (p) {
    case AttackerPlacement::kClose: return "Close";
    case AttackerPlacement::kFar: return "Far";
    case AttackerPlacement::kEven: return "Evenly Distributed";
  }
  return "?";
}

TreeResult run_tree_experiment(const TreeExperimentConfig& config,
                               std::uint64_t seed) {
  const int roles =
      config.n_clients + config.n_attackers + config.tcp_downloads +
      (config.benign_probe_rate > 0.0 ? kBenignProbers : 0);
  HBP_ASSERT_MSG(roles <= static_cast<int>(config.tree.leaf_count),
                 "clients, attackers, downloads and probers exceed the leaves");

  RunHarness harness(config);
  sim::Simulator& simulator = harness.simulator();
  net::Network& network = harness.network();
  util::Rng topo_rng(util::derive_seed(seed, 1));
  util::Rng place_rng(util::derive_seed(seed, 2));
  util::Rng chain_rng(util::derive_seed(seed, 3));

  topo::Tree tree = topo::build_tree(network, topo_rng, config.tree);

  // --- attacker / client placement ---
  const std::size_t leaves = tree.leaf_hosts.size();
  std::vector<std::size_t> attacker_slots;
  switch (config.placement) {
    case AttackerPlacement::kClose:
      attacker_slots.assign(
          tree.leaves_by_distance.begin(),
          tree.leaves_by_distance.begin() + config.n_attackers);
      break;
    case AttackerPlacement::kFar:
      attacker_slots.assign(
          tree.leaves_by_distance.end() - config.n_attackers,
          tree.leaves_by_distance.end());
      break;
    case AttackerPlacement::kEven: {
      attacker_slots = place_rng.choose(
          leaves, static_cast<std::size_t>(config.n_attackers));
      break;
    }
  }
  std::vector<bool> is_attacker(leaves, false);
  for (const std::size_t i : attacker_slots) is_attacker[i] = true;

  std::vector<std::size_t> client_pool;
  for (std::size_t i = 0; i < leaves; ++i) {
    if (!is_attacker[i]) client_pool.push_back(i);
  }
  place_rng.shuffle(client_pool);
  client_pool.resize(static_cast<std::size_t>(config.n_clients));

  // The download receivers, then the benign probers, take the free leaves
  // in leaf order; one ledger keeps any two roles off the same host.
  std::vector<bool> used = is_attacker;
  for (const std::size_t i : client_pool) used[i] = true;

  // --- bystander TCP downloads across the bottleneck ---
  std::vector<std::unique_ptr<transport::TcpSender>> tcp_senders;
  std::vector<std::unique_ptr<transport::TcpReceiver>> tcp_receivers;
  std::int64_t tcp_delivered_at_start = 0;
  std::int64_t tcp_delivered_at_end = 0;
  std::int64_t tcp_delivered_at_one = 0;
  if (config.tcp_downloads > 0) {
    net::LinkParams dl_link;
    dl_link.capacity_bps = config.tree.server_bps;
    dl_link.delay = config.tree.server_delay;
    dl_link.queue_bytes = config.tree.default_queue_bytes;
    int placed = 0;
    for (std::size_t leaf = 0; leaf < leaves && placed < config.tcp_downloads;
         ++leaf) {
      if (used[leaf]) continue;
      used[leaf] = true;
      // Download server behind the bottleneck, next to the pool.
      auto& dl = network.add_node<net::Host>("dl" + std::to_string(placed));
      network.connect(tree.gateway, dl.id(), dl_link);
      dl.set_address(network.assign_address(dl.id()));
      auto& receiver_host =
          static_cast<net::Host&>(network.node(tree.leaf_hosts[leaf]));
      tcp_receivers.push_back(
          std::make_unique<transport::TcpReceiver>(simulator, receiver_host));
      tcp_receivers.back()->attach();
      tcp_senders.push_back(
          std::make_unique<transport::TcpSender>(simulator, dl));
      const sim::Address receiver_addr = receiver_host.address();
      transport::TcpSender* sender = tcp_senders.back().get();
      simulator.at(sim::SimTime::zero(),
                   [sender, receiver_addr] { sender->connect(receiver_addr); },
                   "scenario.tcp.connect");
      ++placed;
    }

    auto total_delivered = [&tcp_receivers] {
      std::int64_t total = 0;
      for (const auto& r : tcp_receivers) total += r->total_bytes_delivered();
      return total;
    };
    simulator.at(sim::SimTime::seconds(1.0),
                 [&, total_delivered] { tcp_delivered_at_one = total_delivered(); },
                 "scenario.tcp.sample");
    simulator.at(sim::SimTime::seconds(config.attack_start),
                 [&, total_delivered] { tcp_delivered_at_start = total_delivered(); },
                 "scenario.tcp.sample");
    simulator.at(sim::SimTime::seconds(config.attack_end),
                 [&, total_delivered] { tcp_delivered_at_end = total_delivered(); },
                 "scenario.tcp.sample");
  }
  network.compute_routes();  // once, after the download servers are attached

  // --- roaming pool ---
  util::Digest tail{};
  for (auto& b : tail) b = static_cast<std::uint8_t>(chain_rng.below(256));
  auto chain = std::make_shared<honeypot::HashChain>(tail, 4096);

  const int n_servers = config.tree.server_count;
  const int k = config.scheme == Scheme::kHbp ? config.k_active : n_servers;
  honeypot::RoamingSchedule schedule(chain, n_servers, k,
                                     sim::SimTime::seconds(config.epoch_seconds));
  honeypot::CheckpointStore store;
  honeypot::ServerPoolParams pool_params;
  pool_params.delta = config.delta;
  pool_params.gamma = config.gamma;
  honeypot::ServerPool pool(simulator, network, schedule, tree.servers,
                            tree.server_addrs, store, pool_params);

  honeypot::SubscriptionService subscription(chain, 64);

  // --- metrics ---
  ThroughputMeter meter(simulator, config.tree.bottleneck_bps);
  // Named (not temporaries): pool/defense keep non-owning refs for the run.
  auto on_delivery = [&meter](int server, const sim::Packet& p) {
    meter.on_delivery(server, p);
  };
  pool.add_delivery_listener(on_delivery);

  // --- defense ---
  net::ControlPlane::Params cp_params;
  cp_params.seed = util::derive_seed(seed, 4);
  net::ControlPlane control(simulator, cp_params);

  std::unique_ptr<pushback::PushbackSystem> pushback_system;
  std::unique_ptr<core::HbpDefense> defense;

  if (config.scheme == Scheme::kPushback) {
    pushback_system = std::make_unique<pushback::PushbackSystem>(
        simulator, network, control, config.pb);
    std::vector<sim::NodeId> routers = tree.interior_routers;
    routers.push_back(tree.gateway);
    routers.insert(routers.end(), tree.access_routers.begin(),
                   tree.access_routers.end());
    pushback_system->install(routers);
    if (config.pb_weighted_by_hosts) {
      // Level-k flavour: weight each router port by the number of leaf
      // hosts reachable upstream through it.
      for (const sim::NodeId r : routers) {
        std::vector<double> weights(network.node(r).port_count(), 0.0);
        for (const sim::Address leaf : tree.leaf_addrs) {
          const int port = network.route_port(r, leaf);
          if (port >= 0) ++weights[static_cast<std::size_t>(port)];
        }
        for (double& w : weights) w = std::max(1.0, w);
        pushback_system->agent(r)->set_port_weights(std::move(weights));
      }
    }
  } else if (config.scheme == Scheme::kHbp) {
    core::HbpParams hbp = config.hbp;
    if (config.hbp_deploy_fraction < 1.0) {
      util::Rng deploy_rng(util::derive_seed(seed, 5));
      std::set<net::AsId> always;
      always.insert(tree.server_as);
      for (int s = 0; s < n_servers; ++s) {
        always.insert(network.node(tree.servers[static_cast<std::size_t>(s)]).as_id());
      }
      hbp.deployment = core::DeploymentPolicy::random_fraction(
          config.hbp_deploy_fraction, tree.as_map.count(), deploy_rng, always);
    }
    defense = std::make_unique<core::HbpDefense>(simulator, network, control,
                                                 pool, tree.as_map, hbp);
    defense->start();
  }

  pool.start();

  // --- legitimate clients ---
  std::vector<std::unique_ptr<util::Rng>> client_rngs;
  std::vector<std::unique_ptr<honeypot::RoamingClient>> clients;
  const double per_client_bps =
      config.legit_load * config.tree.bottleneck_bps / config.n_clients;
  for (std::size_t c = 0; c < client_pool.size(); ++c) {
    const std::size_t leaf = client_pool[c];
    auto& host = static_cast<net::Host&>(network.node(tree.leaf_hosts[leaf]));
    client_rngs.push_back(
        std::make_unique<util::Rng>(util::derive_seed(seed, 100 + c)));
    honeypot::RoamingClientParams params;
    params.cbr.rate_bps = per_client_bps;
    params.cbr.packet_size = config.packet_size;
    params.cbr.start = sim::SimTime::zero();
    params.cbr.stop = sim::SimTime::seconds(config.sim_seconds);
    params.max_clock_skew = config.delta;
    clients.push_back(std::make_unique<honeypot::RoamingClient>(
        simulator, host, *client_rngs.back(), schedule, subscription, pool,
        params));
    clients.back()->start();
  }

  // --- attackers ---
  std::vector<std::unique_ptr<util::Rng>> attacker_rngs;
  std::vector<std::unique_ptr<traffic::CbrSource>> attackers;
  std::vector<std::unique_ptr<traffic::OnOffShaper>> shapers;
  std::vector<std::unique_ptr<traffic::FollowerShaper>> followers;
  // Stored targets for the pool's non-owning window-listener refs (follower
  // attacks only); reserved so push_back never relocates them.
  struct FollowStart {
    traffic::FollowerShaper* shaper;
    int target;
    void operator()(int server, std::size_t) const {
      if (server == target) shaper->on_target_honeypot_start();
    }
  };
  struct FollowEnd {
    traffic::FollowerShaper* shaper;
    int target;
    void operator()(int server, std::size_t) const {
      if (server == target) shaper->on_target_honeypot_end();
    }
  };
  std::vector<FollowStart> follow_starts;
  std::vector<FollowEnd> follow_ends;
  follow_starts.reserve(attacker_slots.size());
  follow_ends.reserve(attacker_slots.size());
  for (std::size_t a = 0; a < attacker_slots.size(); ++a) {
    const std::size_t leaf = attacker_slots[a];
    auto& host = static_cast<net::Host&>(network.node(tree.leaf_hosts[leaf]));
    attacker_rngs.push_back(
        std::make_unique<util::Rng>(util::derive_seed(seed, 5000 + a)));
    util::Rng& rng = *attacker_rngs.back();

    // "Each attack host picks a server among the five servers uniformly at
    // random and keeps on attacking it."
    const sim::Address target =
        tree.server_addrs[rng.below(tree.server_addrs.size())];
    const int target_index = pool.index_of(target);

    traffic::CbrParams params;
    params.rate_bps = config.attacker_rate_bps;
    params.packet_size = config.packet_size;
    params.start = sim::SimTime::seconds(config.attack_start);
    params.stop = sim::SimTime::seconds(config.attack_end);
    params.is_attack = true;
    attackers.push_back(std::make_unique<traffic::CbrSource>(
        simulator, host, rng, params, [target] { return target; }));

    if (config.onoff_t_on) {
      shapers.push_back(std::make_unique<traffic::OnOffShaper>(
          simulator, *attackers.back(),
          sim::SimTime::seconds(*config.onoff_t_on),
          sim::SimTime::seconds(config.onoff_t_off), params.start));
      shapers.back()->start();
      attackers.back()->start();
    } else if (config.follower_delay) {
      followers.push_back(std::make_unique<traffic::FollowerShaper>(
          simulator, *attackers.back(),
          sim::SimTime::seconds(*config.follower_delay)));
      traffic::FollowerShaper* shaper = followers.back().get();
      follow_starts.push_back(FollowStart{shaper, target_index});
      follow_ends.push_back(FollowEnd{shaper, target_index});
      pool.add_honeypot_window_listener(follow_starts.back(),
                                        follow_ends.back());
      attackers.back()->start();
    } else {
      attackers.back()->start();
    }
  }

  // --- benign background probes ---
  std::vector<std::unique_ptr<util::Rng>> probe_rngs;
  std::vector<std::unique_ptr<traffic::ProbeSource>> probes;
  if (config.benign_probe_rate > 0.0) {
    int placed = 0;
    for (std::size_t leaf = 0; leaf < leaves && placed < kBenignProbers;
         ++leaf) {
      if (used[leaf]) continue;
      auto& host = static_cast<net::Host&>(network.node(tree.leaf_hosts[leaf]));
      probe_rngs.push_back(std::make_unique<util::Rng>(
          util::derive_seed(seed, 9000 + static_cast<std::uint64_t>(placed))));
      probes.push_back(std::make_unique<traffic::ProbeSource>(
          simulator, host, *probe_rngs.back(), tree.server_addrs,
          config.benign_probe_rate, sim::SimTime::zero(),
          sim::SimTime::seconds(config.sim_seconds)));
      probes.back()->start();
      ++placed;
    }
  }

  simulator.run_until(sim::SimTime::seconds(config.sim_seconds));

  // --- results ---
  TreeResult result;
  result.mean_client_throughput =
      meter.mean_fraction(config.attack_start, config.attack_end);
  result.baseline_throughput =
      config.attack_start > 1.0 ? meter.mean_fraction(1.0, config.attack_start)
                                : 0.0;
  result.timeline = meter.timeline(config.sim_seconds);
  result.attackers = attacker_slots.size();
  std::set<sim::NodeId> attacker_nodes;
  for (const std::size_t i : attacker_slots) {
    attacker_nodes.insert(tree.leaf_hosts[i]);
  }
  std::span<const core::CaptureEvent> captures;
  if (defense) captures = defense->captures();
  const CaptureScore score = score_captures(
      captures, attacker_nodes, config.attack_start, simulator.telemetry());
  result.captured = score.captured;
  result.false_captures = score.false_captures;
  result.mean_capture_delay = score.mean_delay;
  result.max_capture_delay = score.max_delay;
  if (config.tcp_downloads > 0 && config.attack_start > 1.0) {
    result.tcp_goodput_before =
        static_cast<double>(tcp_delivered_at_start - tcp_delivered_at_one) *
        8.0 / (config.attack_start - 1.0);
    result.tcp_goodput_during =
        static_cast<double>(tcp_delivered_at_end - tcp_delivered_at_start) *
        8.0 / (config.attack_end - config.attack_start);
  }
  result.control_messages = control.total_messages();
  if (defense) {
    result.hbp_activations = defense->activations();
    result.hbp_false_activations = defense->false_activations();
  }
  if (pushback_system) {
    result.pushback_requests = pushback_system->requests_sent();
    result.pushback_limited_drops = pushback_system->total_limited_drops();
  }
  control.export_telemetry(simulator.telemetry());
  if (defense) defense->export_telemetry(simulator.telemetry());
  if (pushback_system) pushback_system->export_telemetry(simulator.telemetry());
  harness.finish(result, config.sim_seconds);
  return result;
}

TreeSummary run_replicated(const TreeExperimentConfig& config, int seeds,
                           std::uint64_t base_seed, util::ThreadPool* pool) {
  TreeSummary summary;
  for (const TreeResult& r : replicate(run_tree_experiment, config, seeds,
                                       base_seed, pool, summary)) {
    summary.throughput.add(r.mean_client_throughput);
    if (r.mean_capture_delay >= 0) summary.capture_delay.add(r.mean_capture_delay);
    summary.capture_fraction.add(
        r.attackers > 0
            ? static_cast<double>(r.captured) / static_cast<double>(r.attackers)
            : 0.0);
    summary.false_captures.add(static_cast<double>(r.false_captures));
  }
  return summary;
}

}  // namespace hbp::scenario
