// Baseline comparison: SPIE single-packet traceback vs honeypot
// back-propagation — quantifying Section 2's objection: "it requires high
// storage overhead at routers or high bandwidth overhead."
//
// Setup: SPIE agents on every router of the Fig. 7 tree while the normal
// legitimate load (~90% of the bottleneck) flows for a retention period;
// then a single spoofed attack packet is traced.  The digest tables must
// be provisioned for the *total* traffic a core router forwards; undersize
// them and Bloom saturation implicates innocent branches.
#include <cstdio>

#include <algorithm>
#include <memory>

#include "bench/bench_util.hpp"

#include "marking/spie.hpp"
#include "net/host.hpp"
#include "topo/tree.hpp"
#include "traffic/cbr.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  const auto leaves = static_cast<std::size_t>(flags.get_int("leaves", 200));
  const int clients = static_cast<int>(flags.get_int("clients", 50));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 6));
  bench::BenchReport report("baseline_spie", flags);
  flags.finish();

  util::print_banner("Baseline — SPIE single-packet traceback: storage vs "
                     "accuracy (Fig. 7 tree, 60 s retention at ~90% "
                     "bottleneck load)");

  util::Table table({"Bloom bits/window", "Core-router storage",
                     "Bits per recorded packet", "Implicated routers",
                     "False (off-path) routers"});

  for (const std::size_t bits : {1u << 12, 1u << 16, 1u << 20}) {
    sim::Simulator simulator;
    net::Network network(simulator);
    topo::TreeParams tp;
    tp.leaf_count = leaves;
    util::Rng rng(seed);
    const topo::Tree tree = topo::build_tree(network, rng, tp);
    network.compute_routes();

    marking::SpieParams params;
    params.bits_per_window = bits;
    std::vector<std::unique_ptr<marking::SpieAgent>> agents;
    std::map<sim::NodeId, marking::SpieAgent*> agent_map;
    auto install = [&](sim::NodeId r) {
      agents.push_back(std::make_unique<marking::SpieAgent>(
          static_cast<net::Router&>(network.node(r)), params));
      agent_map[r] = agents.back().get();
    };
    install(tree.gateway);
    for (const sim::NodeId r : tree.interior_routers) install(r);
    for (const sim::NodeId r : tree.access_routers) install(r);
    marking::SpieTracer tracer(network, agent_map);

    // Legitimate background load.
    std::vector<std::unique_ptr<util::Rng>> rngs;
    std::vector<std::unique_ptr<traffic::CbrSource>> sources;
    for (int c = 0; c < clients; ++c) {
      rngs.push_back(std::make_unique<util::Rng>(
          util::derive_seed(seed, 100 + static_cast<std::uint64_t>(c))));
      traffic::CbrParams cbr;
      cbr.rate_bps = 0.9 * tp.bottleneck_bps / clients;
      const sim::Address target =
          tree.server_addrs[rngs.back()->below(5)];
      // Spread clients across the whole tree so every branch carries load.
      const std::size_t leaf =
          static_cast<std::size_t>(c) * (leaves / static_cast<std::size_t>(clients));
      sources.push_back(std::make_unique<traffic::CbrSource>(
          simulator,
          static_cast<net::Host&>(network.node(tree.leaf_hosts[leaf])),
          *rngs.back(), cbr, [target] { return target; }));
      sources.back()->start();
    }
    simulator.run_until(sim::SimTime::seconds(60));

    // One spoofed attack packet from the farthest leaf.
    const std::size_t attacker = tree.leaves_by_distance.back();
    sim::Packet victim_copy;
    sim::SimTime arrival;
    auto on_packet = [&](const sim::Packet& p) {
      // Evaluator-level ground truth: pick out the probe among the
      // still-flowing client traffic.
      if (!p.is_attack) return;
      victim_copy = p;
      arrival = simulator.now();
    };
    static_cast<net::Host&>(network.node(tree.servers[0]))
        .set_receiver(on_packet);
    sim::Packet attack;
    attack.dst = tree.server_addrs[0];
    attack.src = 0xbad;
    attack.size_bytes = 900;
    attack.is_attack = true;
    static_cast<net::Host&>(network.node(tree.leaf_hosts[attacker]))
        .send(std::move(attack));
    simulator.run_until(simulator.now() + sim::SimTime::seconds(2));

    const auto implicated = tracer.trace(
        tree.gateway, marking::SpieAgent::digest(victim_copy), arrival);

    // The true path: routers from the gateway to the attacker's access.
    std::set<sim::NodeId> true_path;
    sim::NodeId node = tree.gateway;
    const sim::Address back_addr = tree.leaf_addrs[attacker];
    while (network.node(node).kind() == net::NodeKind::kRouter) {
      true_path.insert(node);
      const int port = network.route_port(node, back_addr);
      node = network.node(node).neighbor(static_cast<std::size_t>(port));
    }
    int false_routers = 0;
    for (const sim::NodeId r : implicated) {
      if (!true_path.contains(r)) ++false_routers;
    }

    report.add_events(simulator.events_executed(),
                      simulator.now().to_seconds());
    const auto storage = agent_map[tree.gateway]->storage_bytes();
    const double bits_per_packet =
        static_cast<double>(bits) * params.windows_retained * 8.0 /
        std::max<std::uint64_t>(1,
                                agent_map[tree.gateway]->packets_recorded());
    report.add_counter(
        "false_routers.bits=" + util::Table::num(static_cast<long long>(bits)),
        false_routers);
    table.add_row(
        {util::Table::num(static_cast<long long>(bits)),
         util::Table::num(static_cast<double>(storage) / 1024.0, 1) + " KiB",
         util::Table::num(bits_per_packet, 2),
         util::Table::num(static_cast<long long>(implicated.size())),
         util::Table::num(static_cast<long long>(false_routers))});
  }
  table.print();

  std::printf("\nSPIE needs digest tables sized to the full forwarding "
              "volume of every core\nrouter (Snoeren et al. recommend ~14 "
              "bits/packet of SRAM) — undersized\ntables saturate and "
              "implicate innocent branches.  Honeypot back-propagation\n"
              "keeps per-session state only (a honeypot session is ~100 "
              "bytes per victim\naddress), because the roaming honeypot "
              "makes the *traffic itself* the\nsignature instead of a "
              "per-packet history.\n");
  report.write();
  return 0;
}
