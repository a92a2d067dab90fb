#include "topo/as_map.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "util/assert.hpp"

namespace hbp::topo {

net::AsId AsMap::create(sim::NodeId head, net::AsId downstream) {
  AsInfo info;
  info.id = static_cast<net::AsId>(as_.size());
  info.head = head;
  info.downstream = downstream;
  as_.push_back(std::move(info));
  return as_.back().id;
}

void AsMap::add_router(net::Network& network, net::AsId as, sim::NodeId router) {
  network.node(router).set_as_id(as);
  info(as).routers.push_back(router);
}

void AsMap::add_switch(net::Network& network, net::AsId as, sim::NodeId sw) {
  network.node(sw).set_as_id(as);
  info(as).switches.push_back(sw);
}

void AsMap::add_host(net::Network& network, net::AsId as, sim::NodeId host) {
  network.node(host).set_as_id(as);
  info(as).hosts.push_back(host);
}

void AsMap::finalize(const net::Network& network) {
  for (AsInfo& as : as_) {
    as.cross_links.clear();
    as.upstream.clear();
    int next_edge_id = 0;
    for (const sim::NodeId r : as.routers) {
      const net::Node& node = network.node(r);
      for (std::size_t port = 0; port < node.port_count(); ++port) {
        const sim::NodeId n = node.neighbor(port);
        const net::Node& neighbor = network.node(n);
        if (neighbor.kind() != net::NodeKind::kRouter) continue;
        if (neighbor.as_id() == as.id) continue;
        CrossLink cl;
        cl.router = r;
        cl.port = static_cast<int>(port);
        cl.neighbor_as = neighbor.as_id();
        cl.upstream = neighbor.as_id() != as.downstream;
        cl.edge_id = next_edge_id++;
        if (cl.upstream &&
            std::find(as.upstream.begin(), as.upstream.end(), cl.neighbor_as) ==
                as.upstream.end()) {
          as.upstream.push_back(cl.neighbor_as);
        }
        // A stamped edge id is resolved by indexing cross_links.
        HBP_ASSERT(cl.edge_id == static_cast<int>(as.cross_links.size()));
        as.cross_links.push_back(cl);
      }
    }
    as.transit = !as.upstream.empty();
  }
}

int AsMap::as_hop_distance(net::AsId from, net::AsId to) const {
  // Distance in the AS tree: walk both nodes up to the root collecting
  // ancestor chains, then find the meeting point.
  auto chain = [this](net::AsId a) {
    std::vector<net::AsId> c;
    while (a != net::kNoAs) {
      c.push_back(a);
      a = info(a).downstream;
    }
    return c;
  };
  const auto ca = chain(from);
  const auto cb = chain(to);
  for (std::size_t i = 0; i < ca.size(); ++i) {
    for (std::size_t j = 0; j < cb.size(); ++j) {
      if (ca[i] == cb[j]) return static_cast<int>(i + j);
    }
  }
  return -1;
}

}  // namespace hbp::topo
