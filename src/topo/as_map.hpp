// Autonomous-system structure over a built topology.
//
// The AS graph of our scenarios is a tree rooted at the victim's home AS
// (AS 0): "downstream" points toward the servers, "upstream" away from
// them — the direction honeypot sessions back-propagate.  Each AS records
// its member routers/switches/hosts and its boundary ("cross") links; the
// edge routers carrying those links get dense per-AS ids used for packet
// marking (lg n bits for n edge routers, Section 5.1).
#pragma once

#include <cstdint>
#include <vector>

#include "net/node.hpp"
#include "sim/packet.hpp"

namespace hbp::net {
class Network;
}

namespace hbp::topo {

struct CrossLink {
  sim::NodeId router = sim::kInvalidNode;  // edge router inside this AS
  int port = -1;                           // its port crossing the boundary
  net::AsId neighbor_as = net::kNoAs;
  bool upstream = false;  // neighbor AS is farther from the servers
  int edge_id = -1;       // dense per-AS id for packet marking; indexes
                          // AsInfo::cross_links
};

struct AsInfo {
  net::AsId id = net::kNoAs;
  bool transit = false;                // has upstream neighbor ASs
  sim::NodeId head = sim::kInvalidNode;  // member router closest to servers
  net::AsId downstream = net::kNoAs;   // next AS toward the servers
  std::vector<net::AsId> upstream;
  std::vector<sim::NodeId> routers;
  std::vector<sim::NodeId> switches;
  std::vector<sim::NodeId> hosts;
  std::vector<CrossLink> cross_links;  // indexed by edge id
};

class AsMap {
 public:
  net::AsId create(sim::NodeId head, net::AsId downstream);

  std::size_t count() const { return as_.size(); }
  AsInfo& info(net::AsId id) { return as_[static_cast<std::size_t>(id)]; }
  const AsInfo& info(net::AsId id) const {
    return as_[static_cast<std::size_t>(id)];
  }

  // Adds a member node and stamps its Node::as_id.
  void add_router(net::Network& network, net::AsId as, sim::NodeId router);
  void add_switch(net::Network& network, net::AsId as, sim::NodeId sw);
  void add_host(net::Network& network, net::AsId as, sim::NodeId host);

  // Computes cross links, upstream lists, edge ids, and transit flags from
  // the final topology.  Call once after all membership is assigned.
  void finalize(const net::Network& network);

  // Number of inter-AS hops from `from` up/down the AS tree to `to`
  // (the AS graph is a tree); -1 if disconnected.
  int as_hop_distance(net::AsId from, net::AsId to) const;

 private:
  std::vector<AsInfo> as_;
};

}  // namespace hbp::topo
