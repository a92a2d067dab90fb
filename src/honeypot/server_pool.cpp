#include "honeypot/server_pool.hpp"

#include "util/assert.hpp"

namespace hbp::honeypot {

ServerPool::ServerPool(sim::Simulator& simulator, net::Network& network,
                       const Schedule& schedule,
                       std::vector<sim::NodeId> server_nodes,
                       std::vector<sim::Address> server_addrs,
                       CheckpointStore& store, const ServerPoolParams& params)
    : simulator_(simulator),
      network_(network),
      schedule_(schedule),
      nodes_(std::move(server_nodes)),
      addrs_(std::move(server_addrs)),
      store_(store),
      params_(params) {
  HBP_ASSERT(nodes_.size() == addrs_.size());
  HBP_ASSERT(static_cast<int>(nodes_.size()) == schedule_.server_count());
  // The honeypot window must be non-empty.
  HBP_ASSERT(honeypot_window(1).start < honeypot_window(1).end);
  connections_.resize(nodes_.size());
}

int ServerPool::index_of(sim::Address addr) const {
  for (std::size_t i = 0; i < addrs_.size(); ++i) {
    if (addrs_[i] == addr) return static_cast<int>(i);
  }
  return -1;
}

void ServerPool::enable_tcp() {
  if (!tcp_.empty()) return;
  tcp_.reserve(nodes_.size());
  for (const sim::NodeId node : nodes_) {
    tcp_.push_back(std::make_unique<transport::TcpReceiver>(
        simulator_, static_cast<net::Host&>(network_.node(node))));
  }
}

void ServerPool::start() {
  // The hosts keep non-owning refs to these thunks; reserve so push_back
  // never relocates them.
  receivers_.clear();
  receivers_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const int server = static_cast<int>(i);
    auto& host = static_cast<net::Host&>(network_.node(nodes_[i]));
    receivers_.push_back(Receiver{this, server});
    host.set_receiver(receivers_.back());
  }
  const sim::SimTime first = schedule_.epoch_start(1);
  simulator_.at(first >= simulator_.now() ? first : simulator_.now(),
                [this] { on_epoch(1); },
                "honeypot.pool.epoch");
}

ServerPool::Role ServerPool::role_at(int server, sim::SimTime t) const {
  // Active if the server is active in some epoch e' with t inside
  // [start(e') - δ, end(e') + δ + γ]: t's own epoch e, or a neighbour of e
  // when t is within the guard of their shared boundary.
  const std::size_t e = schedule_.epoch_of(t);
  if (schedule_.is_active(server, e)) return Role::kActive;
  if (e > 1 && t <= schedule_.epoch_start(e) + params_.delta + params_.gamma &&
      schedule_.is_active(server, e - 1)) {
    return Role::kActive;
  }
  if (t >= schedule_.epoch_end(e) - params_.delta &&
      schedule_.is_active(server, e + 1)) {
    return Role::kActive;
  }
  return honeypot_window(e).contains(t) ? Role::kHoneypot : Role::kGuard;
}

void ServerPool::on_epoch(std::size_t epoch) {
  const Schedule::Mask active_now = schedule_.active_mask(epoch);
  const Schedule::Mask active_before =
      epoch > 1 ? schedule_.active_mask(epoch - 1) : active_now;
  for (int s = 0; s < server_count(); ++s) {
    if ((active_now >> s) & 1) continue;

    // Schedule the honeypot observation window.
    const SessionWindow window = honeypot_window(epoch);
    simulator_.at(
        window.start,
        [this, s, epoch] {
          simulator_.emit({simulator_.now(), sim::TraceVerb::kWindowStart,
                           nodes_[static_cast<std::size_t>(s)], 0, 0, s,
                           static_cast<std::int32_t>(epoch)});
          for (const auto& fn : window_start_) fn(s, epoch);
        },
        "honeypot.pool.window");
    simulator_.at(
        window.end,
        [this, s, epoch] {
          simulator_.emit({simulator_.now(), sim::TraceVerb::kWindowEnd,
                           nodes_[static_cast<std::size_t>(s)], 0, 0, s,
                           static_cast<std::int32_t>(epoch)});
          for (const auto& fn : window_end_) fn(s, epoch);
        },
        "honeypot.pool.window");

    if ((active_before >> s) & 1) {
      // Role change active -> honeypot: checkpoint connections once the
      // grace period of the previous epoch expires.
      simulator_.at(window.start, [this, s] { checkpoint_server(s); },
                    "honeypot.pool.checkpoint");
    }
  }

  if (epoch < params_.last_epoch) {
    simulator_.at(schedule_.epoch_start(epoch + 1),
                  [this, epoch] { on_epoch(epoch + 1); },
                  "honeypot.pool.epoch");
  }
}

void ServerPool::checkpoint_server(int server) {
  auto& conns = connections_[static_cast<std::size_t>(server)];
  for (auto& [client, state] : conns) {
    ++state.migrations;
    store_.deposit(state);
    ++migrated_;
  }
  conns.clear();
}

void ServerPool::handle_packet(int server, const sim::Packet& p) {
  const sim::SimTime now = simulator_.now();
  const Role role = role_at(server, now);
  if (role == Role::kGuard) {
    // Guard gap around role changes: tolerated, neither served nor reported.
    ++grace_drops_;
    return;
  }
  if (role == Role::kHoneypot) {
    ++honeypot_packets_;
    if (!p.is_attack) ++false_hits_;
    blacklist_.observed_at_honeypot(p.src);
    simulator_.emit({now, sim::TraceVerb::kHoneypotHit,
                     nodes_[static_cast<std::size_t>(server)], p.uid, 0, server,
                     p.is_attack ? 1 : 0});
    for (const auto& fn : hit_) fn(server, p);
    return;
  }

  // Normal service.
  if (!tcp_.empty() && tcp_[static_cast<std::size_t>(server)]->handle(p)) {
    if (p.type == sim::PacketType::kTcpData && !p.is_attack) {
      legit_bytes_ += static_cast<std::uint64_t>(p.size_bytes);
    }
    for (const auto& fn : delivery_) fn(server, p);
    return;
  }
  if (p.type == sim::PacketType::kHandshakeSyn) {
    blacklist_.note_handshake(p.src);
    sim::Packet ack;
    ack.type = sim::PacketType::kHandshakeAck;
    ack.src = addrs_[static_cast<std::size_t>(server)];
    ack.dst = p.src;
    ack.size_bytes = 64;
    auto& host = static_cast<net::Host&>(
        network_.node(nodes_[static_cast<std::size_t>(server)]));
    host.send(std::move(ack));
  }

  if (p.is_attack) {
    attack_bytes_served_ += static_cast<std::uint64_t>(p.size_bytes);
  } else if (p.type == sim::PacketType::kData ||
             p.type == sim::PacketType::kRequest) {
    legit_bytes_ += static_cast<std::uint64_t>(p.size_bytes);
    auto& conns = connections_[static_cast<std::size_t>(server)];
    auto it = conns.find(p.src);
    if (it == conns.end()) {
      // New or migrated connection: resume from a checkpoint if one is
      // pending, else open fresh state.
      ConnectionState state;
      if (auto resumed = store_.claim(p.src)) {
        state = *resumed;
      } else {
        state.client = p.src;
      }
      state.server_index = server;
      it = conns.emplace(p.src, state).first;
    }
    it->second.bytes += static_cast<std::uint64_t>(p.size_bytes);
    it->second.last_update = now;
  }
  for (const auto& fn : delivery_) fn(server, p);
}

void ServerPool::add_honeypot_window_listener(WindowFn on_start, WindowFn on_end) {
  if (on_start) window_start_.push_back(on_start);
  if (on_end) window_end_.push_back(on_end);
}

}  // namespace hbp::honeypot
