// Orchestrator of honeypot back-propagation (Section 5): wires the roaming
// server pool's honeypot windows to the HSM tree, owns per-server
// progressive state (Section 6), transports and authenticates inter-AS
// messages, bridges deployment gaps (Section 5.3), and records captures.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/deployment.hpp"
#include "core/hsm.hpp"
#include "core/messages.hpp"
#include "core/progressive.hpp"
#include "honeypot/server_pool.hpp"
#include "net/control_plane.hpp"
#include "net/network.hpp"
#include "topo/as_map.hpp"

namespace hbp::telemetry {
class Registry;
}

namespace hbp::core {

struct HbpParams {
  // Honeypot packets within a window before a request is sent (false-
  // positive tolerance, Section 5.3).
  std::uint64_t activation_threshold = 1;

  bool progressive = true;
  int rho = 5;                         // rule-2 threshold (Section 6)
  sim::SimTime tau_estimate = sim::SimTime::millis(500);  // direct-send lead

  DeploymentPolicy deployment;
  util::Digest master_secret{};  // key-store master
};

struct CaptureEvent {
  sim::NodeId host = sim::kInvalidNode;
  sim::Address dst = 0;  // the honeypot whose session caught it
  sim::SimTime when = sim::SimTime::zero();
};

class HbpDefense {
 public:
  HbpDefense(sim::Simulator& simulator, net::Network& network,
             net::ControlPlane& control, honeypot::ServerPool& pool,
             const topo::AsMap& as_map, const HbpParams& params);
  ~HbpDefense();

  // Creates HSMs for deploying ASs and registers server-pool listeners.
  void start();

  // --- accessors used by HSMs ---
  const HbpParams& params() const { return params_; }
  sim::Simulator& simulator() { return simulator_; }
  net::Network& network() { return network_; }
  net::ControlPlane& control() { return control_; }
  const topo::AsMap& as_map() const { return as_map_; }
  Hsm* hsm(net::AsId as);

  // Inter-AS propagation with gap bridging: sends `m` (a request or a
  // cancel) from AS `m.from_as` to AS `m.to_as`; if `m.to_as` does not
  // deploy, the message is broadcast via routing options to the nearest
  // deploying ASs upstream, each gap AS adding one hop of latency.
  template <typename Message>
  void propagate(Message m, int extra_hops = 0);

  // Progressive report from a stalled transit AS back to the server.
  void report_to_server(net::AsId from, sim::Address dst, std::size_t epoch);

  // A switch port (or router port) was closed on `host`; `cause` is the
  // trace cause of its session.
  void on_capture(sim::NodeId host, sim::Address dst, std::uint64_t cause);

  // The one receive point: verifies the MAC under KeyStore::key_for,
  // counts forgeries, then hands the message to its HSM or to the
  // server's progressive state (tests inject forged messages here).
  void deliver(const HoneypotRequest& m);
  void deliver(const HoneypotCancel& m);
  void deliver(const IntermediateReport& m);

  // --- statistics ---
  // The capture log, in capture order; a host appears at most once.
  const std::vector<CaptureEvent>& captures() const { return captures_; }
  std::uint64_t activations() const { return activations_; }
  std::uint64_t false_activations() const { return false_activations_; }
  std::uint64_t forged_rejected() const { return forged_rejected_; }
  std::uint64_t bridged_messages() const { return bridged_; }
  const ProgressiveManager& progressive(int server) const {
    return progressive_[static_cast<std::size_t>(server)];
  }

  // End-of-run snapshot: defense-wide counters ("core.defense.*") and
  // per-HSM request/cancel/divert counts ("core.hsm.<as>.*").
  void export_telemetry(telemetry::Registry& registry) const;

 private:
  struct ServerWindow {
    std::size_t epoch = 0;
    bool open = false;
    bool activated = false;
    std::uint64_t hits = 0;
    std::uint64_t attack_hits = 0;
    // Uid of the latest hit — the wave's trace id once activation fires.
    std::uint64_t last_hit_uid = 0;
  };

  void on_window_start(int server, std::size_t epoch);
  void on_window_end(int server, std::size_t epoch);
  void on_honeypot_hit(int server, const sim::Packet& p);
  void activate(int server);
  // The one send point: signs `m` under KeyStore::key_for and sends it
  // under its own kind after `hops` control-plane hops.
  template <typename Message>
  void post(Message m, int hops);
  template <typename Message>
  bool authentic(const Message& m);
  void schedule_direct_requests(int server);
  net::AsId home_as(int server) const;
  std::size_t next_honeypot_epoch(int server, std::size_t after) const;

  sim::Simulator& simulator_;
  net::Network& network_;
  net::ControlPlane& control_;
  honeypot::ServerPool& pool_;
  const topo::AsMap& as_map_;
  HbpParams params_;
  KeyStore keys_;

  std::vector<std::unique_ptr<Hsm>> hsms_;     // by AsId; null if not deployed
  std::vector<ServerWindow> windows_;          // per server
  std::vector<ProgressiveManager> progressive_;  // per server
  // ASs sent a request for the current/upcoming window, per server/epoch.
  std::vector<std::map<std::size_t, std::set<net::AsId>>> requested_;

  std::vector<CaptureEvent> captures_;
  std::set<sim::NodeId> captured_hosts_;
  std::uint64_t activations_ = 0;
  std::uint64_t false_activations_ = 0;
  std::uint64_t forged_rejected_ = 0;
  std::uint64_t bridged_ = 0;
};

}  // namespace hbp::core
