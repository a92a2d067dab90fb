// The paper's simulation topology (Section 8.3): a tree of routers with
// hop-count and degree distributions matching Fig. 7, five servers behind a
// bottleneck link at the root, end hosts attached through access switches,
// and an AS partition for the hierarchical defense.
//
//   server*5 -- gateway ==bottleneck== root -- interior tree -- access
//   routers -- switches -- leaf hosts (clients / attackers)
#pragma once

#include <cstdint>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/router.hpp"
#include "net/switch_node.hpp"
#include "topo/as_map.hpp"
#include "topo/distributions.hpp"
#include "util/rng.hpp"

namespace hbp::topo {

struct TreeParams {
  std::size_t leaf_count = 500;
  // Leaf hosts per access switch.  The paper's leaves are individual end
  // hosts, so the default is 1; larger values model shared LANs (the
  // intra-AS MAC endgame then has to pick the attacker out of a shared
  // switch).
  int hosts_per_access = 1;
  int server_count = 5;
  // Interior children of the root.  Aggregation near the victim is coarse
  // (few fat ports carry all distant traffic) — this is what exposes the
  // hop-by-hop max-min unfairness of Pushback for close attackers
  // (Section 8.4.1).  Close (depth-1) access routers attach beyond this
  // budget.
  int root_interior_fanout = 7;

  // Link parameters (DESIGN.md "OCR parameter reconstruction").
  double bottleneck_bps = 10e6;
  double core_bps = 100e6;
  // Access capacity equals the bottleneck so a handful of co-located
  // attackers cannot self-throttle before reaching the core — the
  // bottleneck at the root must stay the only choke point (Section 8.3).
  double access_bps = 10e6;   // "links incident on leaf nodes"
  double server_bps = 100e6;  // "links incident on servers"
  sim::SimTime bottleneck_delay = sim::SimTime::millis(10);
  sim::SimTime core_delay = sim::SimTime::millis(10);
  sim::SimTime access_delay = sim::SimTime::millis(1);
  sim::SimTime server_delay = sim::SimTime::millis(1);
  std::int64_t bottleneck_queue_bytes = 64'000;
  std::int64_t default_queue_bytes = 64'000;

  // AS partition: transit-AS bands of `as_band_span` router levels; the
  // subtree under each router at depth `stub_depth` forms one stub AS.
  int as_band_span = 2;
  int stub_depth = 6;
};

struct Tree {
  sim::NodeId gateway = sim::kInvalidNode;  // server-side bottleneck end
  sim::NodeId root = sim::kInvalidNode;     // client-side bottleneck end

  std::vector<sim::NodeId> servers;
  std::vector<sim::Address> server_addrs;

  std::vector<sim::NodeId> leaf_hosts;
  std::vector<sim::Address> leaf_addrs;
  std::vector<int> leaf_hopcount;           // sampled end-to-end link count
  std::vector<sim::NodeId> leaf_switch;     // per-leaf attachment switch
  std::vector<sim::NodeId> leaf_access;     // per-leaf access router

  std::vector<sim::NodeId> interior_routers;  // includes root, not gateway
  std::vector<sim::NodeId> access_routers;
  std::vector<sim::NodeId> switches;
  std::vector<int> router_depth;  // parallel to interior+access concat order

  AsMap as_map;
  net::AsId server_as = net::kNoAs;

  // Leaves sorted ascending by hop count (close attackers = front,
  // far attackers = back).
  std::vector<std::size_t> leaves_by_distance;
};

Tree build_tree(net::Network& network, util::Rng& rng, const TreeParams& params,
                const DiscreteDistribution& hop_dist =
                    fig7_hop_count_distribution(),
                const DiscreteDistribution& degree_dist =
                    fig7_node_degree_distribution());

}  // namespace hbp::topo
