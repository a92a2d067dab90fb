#include "topo/tree.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "util/assert.hpp"

namespace hbp::topo {

namespace {

// Incremental interior-tree builder: maintains, per depth, the routers that
// can still accept children (capacity sampled from the degree distribution,
// minus one for the uplink).  The root has unbounded fanout — it models the
// provider aggregation point above the bottleneck.
class InteriorBuilder {
 public:
  InteriorBuilder(net::Network& network, util::Rng& rng,
                  const DiscreteDistribution& degree_dist,
                  const net::LinkParams& core_link, sim::NodeId root,
                  int root_interior_fanout)
      : network_(network),
        rng_(rng),
        degree_dist_(degree_dist),
        core_link_(core_link),
        root_interior_budget_(root_interior_fanout) {
    levels_.push_back({root});
  }

  // Returns a router at `depth - 1` with a free child slot (creating the
  // chain of interior routers if necessary) and consumes the slot.
  sim::NodeId claim_parent(int depth) {
    HBP_ASSERT(depth >= 1);
    const int parent_depth = depth - 1;
    if (parent_depth == 0) return levels_[0][0];

    if (static_cast<std::size_t>(parent_depth) >= levels_.size()) {
      levels_.resize(static_cast<std::size_t>(parent_depth) + 1);
    }

    // Candidates with spare capacity at the parent depth.
    std::vector<sim::NodeId>& level = levels_[static_cast<std::size_t>(parent_depth)];
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (capacity_[level[i]] > 0) open.push_back(i);
    }

    sim::NodeId parent;
    if (!open.empty()) {
      parent = level[open[rng_.below(open.size())]];
    } else {
      parent = create_router(parent_depth);
    }
    --capacity_[parent];
    return parent;
  }

  const std::vector<sim::NodeId>& new_routers() const { return created_; }
  int depth_of(sim::NodeId r) const { return depth_.at(r); }

 private:
  sim::NodeId create_router(int depth) {
    if (depth == 1) {
      // The root aggregates distant traffic through a bounded number of
      // interior children; once the budget is used, grow an existing
      // depth-1 aggregation router instead (their degree distribution gets
      // a heavy tail, as near-core routers do).
      if (root_interior_budget_ <= 0 && !levels_[1].empty()) {
        const sim::NodeId grown = levels_[1][rng_.below(levels_[1].size())];
        ++capacity_[grown];
        return grown;
      }
      --root_interior_budget_;
    }
    const sim::NodeId up = claim_parent(depth);
    auto& r = network_.add_node<net::Router>("r" + std::to_string(counter_++));
    network_.connect(up, r.id(), core_link_);
    // Degree = uplink + children; at least one child slot.
    const auto degree = degree_dist_.sample(rng_);
    capacity_[r.id()] = std::max<std::int64_t>(1, degree - 1);
    levels_[static_cast<std::size_t>(depth)].push_back(r.id());
    created_.push_back(r.id());
    depth_[r.id()] = depth;
    return r.id();
  }

  net::Network& network_;
  util::Rng& rng_;
  const DiscreteDistribution& degree_dist_;
  net::LinkParams core_link_;
  int root_interior_budget_;
  std::vector<std::vector<sim::NodeId>> levels_;
  std::map<sim::NodeId, std::int64_t> capacity_;
  std::map<sim::NodeId, int> depth_;
  std::vector<sim::NodeId> created_;
  int counter_ = 0;
};

}  // namespace

Tree build_tree(net::Network& network, util::Rng& rng, const TreeParams& params,
                const DiscreteDistribution& hop_dist,
                const DiscreteDistribution& degree_dist) {
  HBP_ASSERT(params.leaf_count > 0);
  HBP_ASSERT(params.hosts_per_access >= 1);
  HBP_ASSERT(params.server_count >= 1);
  HBP_ASSERT(params.as_band_span >= 1);
  HBP_ASSERT(params.stub_depth >= 1);

  Tree tree;

  net::LinkParams bottleneck;
  bottleneck.capacity_bps = params.bottleneck_bps;
  bottleneck.delay = params.bottleneck_delay;
  bottleneck.queue_bytes = params.bottleneck_queue_bytes;

  net::LinkParams core;
  core.capacity_bps = params.core_bps;
  core.delay = params.core_delay;
  core.queue_bytes = params.default_queue_bytes;

  net::LinkParams access;
  access.capacity_bps = params.access_bps;
  access.delay = params.access_delay;
  access.queue_bytes = params.default_queue_bytes;

  net::LinkParams server_link;
  server_link.capacity_bps = params.server_bps;
  server_link.delay = params.server_delay;
  server_link.queue_bytes = params.default_queue_bytes;

  // Bottleneck: gateway (server side) <-> root (client-tree side).
  auto& gateway = network.add_node<net::Router>("gateway");
  auto& root = network.add_node<net::Router>("root");
  network.connect(gateway.id(), root.id(), bottleneck);
  tree.gateway = gateway.id();
  tree.root = root.id();

  for (int s = 0; s < params.server_count; ++s) {
    auto& server = network.add_node<net::Host>("server" + std::to_string(s));
    network.connect(gateway.id(), server.id(), server_link);
    server.set_address(network.assign_address(server.id()));
    tree.servers.push_back(server.id());
    tree.server_addrs.push_back(server.address());
  }

  // Interior tree + access clusters.
  InteriorBuilder builder(network, rng, degree_dist, core, root.id(),
                          params.root_interior_fanout);
  // host - switch - access router - ... - root - gateway - server: the
  // access router sits at depth hops-4 below the root, minimum depth 1.
  const int min_hop = 5;
  std::size_t remaining = params.leaf_count;
  int cluster = 0;
  std::map<sim::NodeId, int> access_depth;
  while (remaining > 0) {
    const int hops =
        std::max<int>(min_hop, static_cast<int>(hop_dist.sample(rng)));
    const int depth = hops - 4;  // access-router depth below the root

    const sim::NodeId parent = builder.claim_parent(depth);
    auto& ar = network.add_node<net::Router>("ar" + std::to_string(cluster));
    network.connect(parent, ar.id(), core);
    tree.access_routers.push_back(ar.id());
    access_depth[ar.id()] = depth;

    auto& sw = network.add_node<net::Switch>("sw" + std::to_string(cluster));
    network.connect(ar.id(), sw.id(), access);
    tree.switches.push_back(sw.id());

    const std::size_t host_count =
        std::min<std::size_t>(remaining,
                              static_cast<std::size_t>(params.hosts_per_access));
    for (std::size_t h = 0; h < host_count; ++h) {
      auto& host = network.add_node<net::Host>(
          "h" + std::to_string(tree.leaf_hosts.size()));
      network.connect(sw.id(), host.id(), access);
      host.set_address(network.assign_address(host.id()));
      tree.leaf_hosts.push_back(host.id());
      tree.leaf_addrs.push_back(host.address());
      tree.leaf_hopcount.push_back(depth + 4);
      tree.leaf_switch.push_back(sw.id());
      tree.leaf_access.push_back(ar.id());
    }
    remaining -= host_count;
    ++cluster;
  }
  tree.interior_routers.push_back(root.id());
  for (sim::NodeId r : builder.new_routers()) tree.interior_routers.push_back(r);

  // --- AS partition ---
  // AS 0: the victim's home AS (gateway + servers).
  tree.server_as = tree.as_map.create(gateway.id(), net::kNoAs);
  tree.as_map.add_router(network, tree.server_as, gateway.id());
  for (sim::NodeId s : tree.servers) {
    tree.as_map.add_host(network, tree.server_as, s);
  }

  // Interior routers, in depth order (parents before children): a new
  // transit AS starts at every `as_band_span` levels until `stub_depth`,
  // where the whole subtree becomes one stub AS.
  std::vector<std::pair<int, sim::NodeId>> interior_by_depth;
  interior_by_depth.emplace_back(0, root.id());
  for (sim::NodeId r : builder.new_routers()) {
    interior_by_depth.emplace_back(builder.depth_of(r), r);
  }
  std::stable_sort(interior_by_depth.begin(), interior_by_depth.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  auto parent_router = [&](sim::NodeId r) {
    // Port 0 is always the uplink (connect() is called parent-first).
    return network.node(r).neighbor(0);
  };

  for (const auto& [depth, r] : interior_by_depth) {
    if (depth == 0) {
      const net::AsId as = tree.as_map.create(r, tree.server_as);
      tree.as_map.add_router(network, as, r);
      continue;
    }
    const net::AsId parent_as = network.node(parent_router(r)).as_id();
    HBP_ASSERT(parent_as != net::kNoAs);
    if (depth >= params.stub_depth) {
      if (depth == params.stub_depth) {
        const net::AsId as = tree.as_map.create(r, parent_as);
        tree.as_map.add_router(network, as, r);
      } else {
        tree.as_map.add_router(network, parent_as, r);
      }
    } else if (depth % params.as_band_span == 0) {
      const net::AsId as = tree.as_map.create(r, parent_as);
      tree.as_map.add_router(network, as, r);
    } else {
      tree.as_map.add_router(network, parent_as, r);
    }
  }

  // Access routers: inside a stub subtree they join it; otherwise each
  // access cluster is its own stub AS.
  for (std::size_t c = 0; c < tree.access_routers.size(); ++c) {
    const sim::NodeId ar = tree.access_routers[c];
    const int depth = access_depth[ar];
    const net::AsId parent_as = network.node(parent_router(ar)).as_id();
    net::AsId as;
    if (depth > params.stub_depth) {
      as = parent_as;  // parent is inside a stub subtree
      tree.as_map.add_router(network, as, ar);
    } else {
      as = tree.as_map.create(ar, parent_as);
      tree.as_map.add_router(network, as, ar);
    }
    tree.as_map.add_switch(network, as, tree.switches[c]);
  }
  for (std::size_t i = 0; i < tree.leaf_hosts.size(); ++i) {
    tree.as_map.add_host(network,
                         network.node(tree.leaf_access[i]).as_id(),
                         tree.leaf_hosts[i]);
  }

  tree.as_map.finalize(network);

  // Depth bookkeeping for attacker placement (Fig. 10 close/far/even).
  tree.leaves_by_distance.resize(tree.leaf_hosts.size());
  std::iota(tree.leaves_by_distance.begin(), tree.leaves_by_distance.end(), 0u);
  std::stable_sort(tree.leaves_by_distance.begin(), tree.leaves_by_distance.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tree.leaf_hopcount[a] < tree.leaf_hopcount[b];
                   });

  tree.router_depth.clear();
  for (const auto& [depth, r] : interior_by_depth) {
    (void)r;
    tree.router_depth.push_back(depth);
  }
  for (const sim::NodeId ar : tree.access_routers) {
    tree.router_depth.push_back(access_depth[ar]);
  }

  return tree;
}

}  // namespace hbp::topo
