#include "net/network.hpp"

#include <string>

#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace hbp::net {

std::pair<int, int> Network::connect(sim::NodeId a, sim::NodeId b,
                                     const LinkParams& a_to_b,
                                     const LinkParams& b_to_a) {
  HBP_ASSERT(a != b);
  Node& na = node(a);
  Node& nb = node(b);
  const int port_a = static_cast<int>(na.neighbors_.size());
  const int port_b = static_cast<int>(nb.neighbors_.size());
  na.neighbors_.push_back(b);
  nb.neighbors_.push_back(a);
  links_[static_cast<std::size_t>(a)].push_back(
      std::make_unique<Link>(simulator_, *this, a, b, port_b, a_to_b));
  links_[static_cast<std::size_t>(b)].push_back(
      std::make_unique<Link>(simulator_, *this, b, a, port_a, b_to_a));
  routes_valid_ = false;
  return {port_a, port_b};
}

sim::Address Network::assign_address(sim::NodeId node_id) {
  addr_to_node_.push_back(node_id);
  routes_valid_ = false;
  return static_cast<sim::Address>(addr_to_node_.size());  // addresses start at 1
}

sim::NodeId Network::node_of(sim::Address a) const {
  HBP_ASSERT(a >= 1 && a <= addr_to_node_.size());
  return addr_to_node_[a - 1];
}

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  const std::size_t m = addr_to_node_.size();

  // Flat adjacency: u's ports are adj[first[u] .. first[u + 1]) in port order,
  // each the neighbour and the neighbour's port back to u.
  struct Edge { sim::NodeId to; std::int16_t back; };
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<Edge> adj;
  for (std::size_t u = 0; u < n; ++u) {
    HBP_ASSERT_MSG(links_[u].size() <= INT16_MAX, "ports must fit the int16 table");
    for (std::size_t port = 0; port < links_[u].size(); ++port) {
      adj.push_back({nodes_[u]->neighbor(port),
                     static_cast<std::int16_t>(links_[u][port]->to_port())});
    }
    first[u + 1] = adj.size();
  }

  // One BFS per address from its node.  v's entry is the back port of its
  // first BFS parent's first port to v, which `connect` made v's first port
  // to that parent.  The address's own entries mark the nodes seen; the root
  // holds a placeholder while its search runs.
  routes_.assign(n * m, -1);
  std::vector<sim::NodeId> frontier(n);
  for (std::size_t ai = 0; ai < m; ++ai) {
    std::int16_t* const column = routes_.data() + ai;
    const sim::NodeId root = addr_to_node_[ai];
    column[static_cast<std::size_t>(root) * m] = 0;
    frontier[0] = root;
    for (std::size_t head = 0, tail = 1; head < tail; ++head) {
      const auto u = static_cast<std::size_t>(frontier[head]);
      for (std::size_t e = first[u]; e < first[u + 1]; ++e) {
        std::int16_t& entry = column[static_cast<std::size_t>(adj[e].to) * m];
        if (entry != -1) continue;
        entry = adj[e].back;
        frontier[tail++] = adj[e].to;
      }
    }
    column[static_cast<std::size_t>(root) * m] = -1;
  }
  routes_valid_ = true;
}

int Network::hop_distance(sim::NodeId from, sim::Address dst) const {
  // Routes are BFS parents, so walking them takes exactly the BFS distance.
  const sim::NodeId target = node_of(dst);
  int hops = 0;
  for (sim::NodeId at = from; at != target; ++hops) {
    const int port = route_port(at, dst);
    if (port < 0) return -1;
    at = node(at).neighbor(static_cast<std::size_t>(port));
  }
  return hops;
}

void Network::transmit(sim::NodeId from, int port, sim::Packet&& p) {
  HBP_ASSERT(port >= 0 &&
             static_cast<std::size_t>(port) < links_[static_cast<std::size_t>(from)].size());
  ++counters_.transmitted;
  // Link::send emits kEnqueue or kQueueDrop at this instant for `from`; that
  // emit folds the digest's transmit record.
  links_[static_cast<std::size_t>(from)][static_cast<std::size_t>(port)]->send(
      std::move(p));
}

void Network::deliver(sim::NodeId to, sim::Packet&& p, int in_port) {
  ++counters_.delivered;
  simulator_.emit({simulator_.now(), sim::TraceVerb::kDeliver, to, p.uid, 0,
                   in_port, -1});
  node(to).receive(std::move(p), in_port);
}

void Network::drop_ttl(const sim::Packet& p, sim::NodeId at) {
  ++counters_.dropped_ttl;
  simulator_.emit(
      {simulator_.now(), sim::TraceVerb::kTtlDrop, at, p.uid, 0, -1, -1});
}

void Network::drop_filter(const sim::Packet& p, sim::NodeId at) {
  ++counters_.dropped_filter;
  simulator_.emit(
      {simulator_.now(), sim::TraceVerb::kFilterDrop, at, p.uid, 0, -1, -1});
}

std::uint64_t Network::total_queue_drops() const {
  std::uint64_t total = 0;
  for (const auto& node_links : links_) {
    for (const auto& link : node_links) {
      total += link->queue().drops();
    }
  }
  return total;
}

void Network::export_telemetry(telemetry::Registry& registry) const {
  registry.counter("net.packets.transmitted").add(counters_.transmitted);
  registry.counter("net.packets.delivered").add(counters_.delivered);
  registry.counter("net.packets.dropped_ttl").add(counters_.dropped_ttl);
  registry.counter("net.packets.dropped_filter").add(counters_.dropped_filter);
  registry.counter("net.queue.drops").add(total_queue_drops());

  auto& peak_hist = registry.histogram("net.queue.peak_bytes");
  auto& drop_hist = registry.histogram("net.queue.drops_per_queue");
  for (std::size_t n = 0; n < links_.size(); ++n) {
    for (std::size_t port = 0; port < links_[n].size(); ++port) {
      const DropTailQueue& q = links_[n][port]->queue();
      peak_hist.record(static_cast<std::uint64_t>(q.peak_bytes()));
      if (q.drops() == 0) continue;
      drop_hist.record(q.drops());
      const std::string prefix = "net.queue." + nodes_[n]->name() + ":" +
                                 std::to_string(port);
      registry.counter(prefix + ".drops").add(q.drops());
      registry.counter(prefix + ".accepted").add(q.accepted());
      registry.gauge(prefix + ".peak_bytes")
          .set(static_cast<double>(q.peak_bytes()));
    }
  }
}

}  // namespace hbp::net
