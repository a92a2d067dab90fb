// The replicated server pool with roaming honeypots (Section 4).
//
// Each server alternates between serving (active) and acting as a honeypot
// according to the shared schedule.  Loose clock synchronisation is
// honoured with guard bands: an active role starts δ early and ends δ+γ
// late; the honeypot observation window of an inactive epoch is shrunk by
// the same guards so in-transit legitimate packets are never mistaken for
// attack traffic ("each service epoch starts earlier by δ at the new
// servers and ends later by δ+γ at the active servers").
//
// During a honeypot window every arriving packet is honeypot traffic; the
// pool notifies the defense (window start/end + per-packet hits), feeds the
// blacklist, and checkpoints/migrates connections at role changes.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include <memory>

#include "honeypot/blacklist.hpp"
#include "honeypot/checkpoint.hpp"
#include "honeypot/schedule.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp.hpp"
#include "util/function_ref.hpp"

namespace hbp::honeypot {

struct ServerPoolParams {
  sim::SimTime delta = sim::SimTime::millis(200);  // clock-shift bound δ
  sim::SimTime gamma = sim::SimTime::millis(100);  // est. client-server delay γ
  std::size_t last_epoch = 1000;  // epochs 1..last_epoch are scheduled
};

class ServerPool {
 public:
  // Non-owning listener refs: the callables must outlive the pool's run
  // (bind defense member functions, or name the lambdas at the call site).
  using WindowFn = util::function_ref<void(int server, std::size_t epoch)>;
  using HitFn = util::function_ref<void(int server, const sim::Packet&)>;
  using DeliveryFn = util::function_ref<void(int server, const sim::Packet&)>;

  ServerPool(sim::Simulator& simulator, net::Network& network,
             const Schedule& schedule, std::vector<sim::NodeId> server_nodes,
             std::vector<sim::Address> server_addrs, CheckpointStore& store,
             const ServerPoolParams& params);

  // Arms epoch transitions and packet handling; call once before running.
  void start();

  // Enables TCP service on the servers (for RoamingTcpClient workloads):
  // TCP packets arriving during active windows are handled by a per-server
  // TcpReceiver; during honeypot windows they are honeypot traffic like
  // everything else.  Call before start().
  void enable_tcp();

  // --- defense / metrics hooks (multiple listeners allowed) ---
  void add_honeypot_window_listener(WindowFn on_start, WindowFn on_end);
  void add_honeypot_hit_listener(HitFn fn) { hit_.push_back(fn); }
  void add_delivery_listener(DeliveryFn fn) { delivery_.push_back(fn); }

  // --- queries ---
  int server_count() const { return static_cast<int>(nodes_.size()); }
  sim::Address address(int server) const {
    return addrs_[static_cast<std::size_t>(server)];
  }
  sim::NodeId node(int server) const {
    return nodes_[static_cast<std::size_t>(server)];
  }
  int index_of(sim::Address addr) const;
  const Schedule& schedule() const { return schedule_; }
  Blacklist& blacklist() { return blacklist_; }

  // What a packet arriving at `server` at t meets: service (an active
  // epoch, which starts δ early and ends δ+γ late), the honeypot window of
  // an inactive epoch, or the guard gap between the two.
  enum class Role { kActive, kHoneypot, kGuard };
  Role role_at(int server, sim::SimTime t) const;

  // The honeypot observation window of an inactive epoch: the epoch
  // shrunk by δ+γ at each end, so that no legitimate packet (bounded clock
  // skew δ, path delay ~γ) can fall inside it — inside it, traffic is
  // attack traffic by construction.
  SessionWindow honeypot_window(std::size_t epoch) const {
    const sim::SimTime guard = params_.delta + params_.gamma;
    return {schedule_.epoch_start(epoch) + guard,
            schedule_.epoch_end(epoch) - guard};
  }

  // --- counters ---
  std::uint64_t honeypot_packets() const { return honeypot_packets_; }
  std::uint64_t honeypot_false_hits() const { return false_hits_; }
  std::uint64_t grace_drops() const { return grace_drops_; }
  std::uint64_t legit_bytes() const { return legit_bytes_; }
  std::uint64_t attack_bytes_served() const { return attack_bytes_served_; }
  std::uint64_t connections_migrated() const { return migrated_; }

 private:
  // Stored target for the per-server Host receiver ref: lives in
  // receivers_ (reserved once in start()) for the pool's lifetime.
  struct Receiver {
    ServerPool* pool;
    int server;
    void operator()(const sim::Packet& p) const {
      pool->handle_packet(server, p);
    }
  };

  void on_epoch(std::size_t epoch);
  void handle_packet(int server, const sim::Packet& p);
  void checkpoint_server(int server);

  sim::Simulator& simulator_;
  net::Network& network_;
  const Schedule& schedule_;
  std::vector<sim::NodeId> nodes_;
  std::vector<sim::Address> addrs_;
  CheckpointStore& store_;
  ServerPoolParams params_;

  Blacklist blacklist_;
  std::vector<Receiver> receivers_;
  std::vector<WindowFn> window_start_;
  std::vector<WindowFn> window_end_;
  std::vector<HitFn> hit_;
  std::vector<DeliveryFn> delivery_;

  // Per-server live connection state (client address -> state).
  std::vector<std::map<sim::Address, ConnectionState>> connections_;
  // Per-server TCP endpoints (empty unless enable_tcp() was called).
  std::vector<std::unique_ptr<transport::TcpReceiver>> tcp_;

  std::uint64_t honeypot_packets_ = 0;
  std::uint64_t false_hits_ = 0;   // benign packets in honeypot windows
  std::uint64_t grace_drops_ = 0;  // packets in guard gaps
  std::uint64_t legit_bytes_ = 0;
  std::uint64_t attack_bytes_served_ = 0;  // attack packets served while active
  std::uint64_t migrated_ = 0;
};

}  // namespace hbp::honeypot
