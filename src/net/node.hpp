// Base class for all network elements (routers, hosts, switches).
//
// Port numbering is symmetric: when Network::connect(a, b) assigns port i on
// a and port j on b, packets from b arrive at a with in_port == i, and a
// sends to b through out port i.  "The upstream neighbor connected to input
// port x" — the phrase input debugging relies on — is therefore simply the
// neighbor on port x.
#pragma once

#include <string>
#include <vector>

#include "sim/packet.hpp"

namespace hbp::net {

class Network;

enum class NodeKind : std::uint8_t {
  kRouter,
  kHost,
  kSwitch,
};

// Autonomous-system identifier; kNoAs for nodes outside any AS (none in our
// scenarios, but builders start from this state).
using AsId = std::int32_t;
inline constexpr AsId kNoAs = -1;

class Node {
 public:
  Node(std::string name, NodeKind kind) : name_(std::move(name)), kind_(kind) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  sim::NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  NodeKind kind() const { return kind_; }

  AsId as_id() const { return as_id_; }
  void set_as_id(AsId as) { as_id_ = as; }

  std::size_t port_count() const { return neighbors_.size(); }
  sim::NodeId neighbor(std::size_t port) const { return neighbors_[port]; }

  Network& network() const { return *network_; }

  // Delivery of a packet that finished traversing the link on `in_port`.
  virtual void receive(sim::Packet&& p, int in_port) = 0;

 private:
  friend class Network;

  std::string name_;
  NodeKind kind_;
  sim::NodeId id_ = sim::kInvalidNode;
  AsId as_id_ = kNoAs;
  Network* network_ = nullptr;
  std::vector<sim::NodeId> neighbors_;  // indexed by port
};

}  // namespace hbp::net
