// L2 access switch between end hosts and their access router.
//
// The physical arrival port of a frame cannot be spoofed, which is what the
// paper's intra-AS end game relies on: "access routers identify the MAC
// addresses of attack hosts and inform the network switches to close the
// ports connected to the identified MAC addresses" (Section 5.2).  Here MAC
// identity is the attached host on a port, and close_port() severs it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "net/node.hpp"
#include "sim/packet.hpp"

namespace hbp::net {

class Switch final : public Node {
 public:
  explicit Switch(std::string name) : Node(std::move(name), NodeKind::kSwitch) {}

  void receive(sim::Packet&& p, int in_port) override;

  // --- port management (the capture mechanism) ---

  void close_port(int port);
  bool is_closed(int port) const { return closed_.contains(port); }
  std::size_t closed_port_count() const { return closed_.size(); }

  // --- per-destination watch (router-driven input debugging at L2) ---

  // While a watch is active the switch counts, per arrival port, frames
  // destined to `dst`.  Used by the access router during a honeypot session.
  void start_watch(sim::Address dst);
  void stop_watch(sim::Address dst);
  bool watching(sim::Address dst) const { return watches_.contains(dst); }

  // Fills `out` (cleared first; the caller reuses it) with the ports that
  // sent at least one frame to `dst` since the watch started, in port order.
  void ports_sending_to(sim::Address dst, std::vector<int>& out) const;

  // The host node attached on `port` (kInvalidNode if the neighbor is not a
  // host, e.g. the uplink).
  sim::NodeId attached_host(int port) const;

  std::uint64_t frames_forwarded() const { return forwarded_; }
  std::uint64_t frames_blocked() const { return blocked_; }

 private:
  std::set<int> closed_;
  std::map<sim::Address, std::map<int, std::uint64_t>> watches_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t blocked_ = 0;
};

}  // namespace hbp::net
