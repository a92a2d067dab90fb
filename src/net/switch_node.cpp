#include "net/switch_node.hpp"

#include "net/network.hpp"
#include "util/assert.hpp"

namespace hbp::net {

void Switch::receive(sim::Packet&& p, int in_port) {
  if (closed_.contains(in_port)) {
    ++blocked_;
    network().drop_filter(p, id());
    return;
  }

  if (auto it = watches_.find(p.dst); it != watches_.end()) {
    ++it->second[in_port];
  }

  const int out_port = network().route_port(id(), p.dst);
  if (out_port < 0) {
    network().drop_filter(p, id());
    return;
  }
  ++forwarded_;
  network().transmit(id(), out_port, std::move(p));
}

void Switch::close_port(int port) {
  HBP_ASSERT(port >= 0 && static_cast<std::size_t>(port) < port_count());
  closed_.insert(port);
}

void Switch::start_watch(sim::Address dst) { watches_.try_emplace(dst); }

void Switch::stop_watch(sim::Address dst) { watches_.erase(dst); }

void Switch::ports_sending_to(sim::Address dst, std::vector<int>& out) const {
  out.clear();
  if (auto it = watches_.find(dst); it != watches_.end()) {
    for (const auto& [port, count] : it->second) {
      if (count > 0) out.push_back(port);
    }
  }
}

sim::NodeId Switch::attached_host(int port) const {
  HBP_ASSERT(port >= 0 && static_cast<std::size_t>(port) < port_count());
  const sim::NodeId n = neighbor(static_cast<std::size_t>(port));
  if (network().node(n).kind() == NodeKind::kHost) return n;
  return sim::kInvalidNode;
}

}  // namespace hbp::net
