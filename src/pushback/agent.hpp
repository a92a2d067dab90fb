// Pushback / Aggregate-based Congestion Control (ACC) — the baseline
// defense the paper compares against (Mahajan et al. "Controlling high
// bandwidth aggregates in the network", Ioannidis & Bellovin "Implementing
// Pushback").
//
// Every router runs an agent.  A window timer rolls per-output-port
// statistics; when an output link's drop rate crosses the congestion
// threshold, the agent identifies the high-bandwidth aggregates (per
// destination address — the paper's note that "the server's destination
// address defines the malicious aggregate" applies to both schemes),
// rate-limits them with token buckets, and propagates each aggregate's
// limit upstream, split max-min across the contributing input ports.
// Upstream agents recurse until max_depth.  Sessions expire unless
// refreshed; cancels propagate when congestion clears.
//
// The hop-by-hop max-min split deliberately ignores how many end hosts sit
// behind each input port — reproducing the collateral-damage behaviour of
// Fig. 10/11.  The optional per-port weights implement the Level-k
// max-min-fairness variant (Section 2, "Mitigation") as an ablation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "net/control_plane.hpp"
#include "net/network.hpp"
#include "net/router.hpp"
#include "pushback/token_bucket.hpp"
#include "sim/simulator.hpp"

namespace hbp::telemetry {
class Registry;
}

namespace hbp::pushback {

struct PushbackParams {
  sim::SimTime interval = sim::SimTime::seconds(1);
  double congestion_drop_rate = 0.05;  // output drop fraction triggering ACC
  double target_utilization = 0.90;    // post-control load on the link
  int max_depth = 8;                   // pushback propagation depth
  int expiry_windows = 3;              // sessions expire without refresh
  double min_limit_bps = 8'000;        // floor for any aggregate limit
  double bucket_burst_bytes = 10'000;
  // Aggregates are destination *prefixes* (address >> prefix_shift): ACC
  // has no per-flow attack signature, so the identified aggregate lumps the
  // whole victim pool (and innocent neighbors) together — the coarse
  // signature whose collateral damage the paper contrasts with HBP's
  // per-honeypot-address signature.
  int aggregate_prefix_shift = 3;
};

// Aggregate signature: destination prefix.
using AggregateKey = sim::Address;

class PushbackSystem;

class PushbackAgent final : public net::PacketFilter, public net::ForwardTap {
 public:
  PushbackAgent(PushbackSystem& system, net::Router& router);
  ~PushbackAgent() override;

  PushbackAgent(const PushbackAgent&) = delete;
  PushbackAgent& operator=(const PushbackAgent&) = delete;

  // PacketFilter: enforce aggregate rate limits.
  net::FilterAction on_packet(const sim::Packet& p, int in_port) override;

  // ForwardTap: per-window arrival accounting.
  void on_forward(const sim::Packet& p, int in_port, int out_port) override;

  // Window roll: congestion detection, limit recomputation, propagation.
  void on_timer();

  // Control-plane deliveries.
  void receive_request(AggregateKey agg, double limit_bps, int depth,
                       sim::NodeId from);
  void receive_cancel(AggregateKey agg, sim::NodeId from);
  // Upstream demand feedback (ACC status messages): without it the
  // congested router would mistake upstream limiting for the attack having
  // ended and oscillate.
  void receive_status(AggregateKey agg, double demand_bps);

  // Level-k extension: weight per input port — e.g. number of leaf hosts
  // behind the port.  Unset ports => plain pushback (weight 1).
  void set_port_weights(std::vector<double> weights) {
    weights_ = std::move(weights);
  }

  std::size_t active_sessions() const { return sessions_.size(); }
  std::uint64_t limited_drops() const { return limited_drops_; }

 private:
  // One aggregate's traffic in the current window.
  struct Traffic {
    // Per input port: forwarded plus locally limited bytes (its demand).
    std::vector<std::uint64_t> in_bytes;
    // Per output port: forwarded bytes (offered to the output queue).
    std::vector<std::uint64_t> out_bytes;
    // Bytes the local rate limiter dropped: evidence the aggregate's
    // demand still exceeds its limit even though the output queue looks
    // calm.
    std::uint64_t limited_bytes = 0;
  };
  struct Session {
    explicit Session(const TokenBucket& b) : bucket(b) {}

    TokenBucket bucket;  // its rate is the session's limit
    int depth = 0;
    bool self_originated = false;
    std::set<sim::NodeId> requesters;   // downstream routers holding us to it
    int windows_since_refresh = 0;
    int calm_windows = 0;               // congestion-free windows (self only)
    double reported_demand_bps = 0.0;   // upstream status feedback, per window
    std::set<int> upstream_ports;       // ports we sent requests through
  };

  AggregateKey key_of(const sim::Packet& p) const;
  Traffic& traffic(AggregateKey agg);
  double port_weight(std::size_t port) const;
  // Starts a drop window: records each output queue's dropped_bytes().
  void mark_drops();
  // The session for `agg` limited to `limit_bps`: a new one starts with a
  // full bucket, an existing one is re-rated.
  Session& set_limit(AggregateKey agg, double limit_bps);
  void detect_congestion();
  void propagate(AggregateKey agg, Session& session);
  void remove_session(AggregateKey agg, Session& session);

  PushbackSystem& system_;
  net::Router& router_;
  // Per output port: its queue's dropped_bytes() when this window began.
  std::vector<std::uint64_t> drop_mark_;
  std::vector<double> weights_;
  // Window accounting keyed by aggregate signature (destination prefix).
  std::map<AggregateKey, Traffic> window_;
  std::map<AggregateKey, Session> sessions_;
  std::uint64_t limited_drops_ = 0;
};

class PushbackSystem {
 public:
  PushbackSystem(sim::Simulator& simulator, net::Network& network,
                 net::ControlPlane& control, const PushbackParams& params);

  // Installs agents on the given routers and starts the window timer.
  void install(std::span<const sim::NodeId> routers);

  // Message transport between agents (1 control hop each).
  void send_request(sim::NodeId from, sim::NodeId to, AggregateKey agg,
                    double limit_bps, int depth);
  void send_cancel(sim::NodeId from, sim::NodeId to, AggregateKey agg);
  void send_status(sim::NodeId to, AggregateKey agg, double demand_bps);

  PushbackAgent* agent(sim::NodeId router);

  const PushbackParams& params() const { return params_; }
  sim::Simulator& simulator() { return simulator_; }
  net::Network& network() { return network_; }

  // --- aggregate statistics ---
  std::uint64_t requests_sent() const { return requests_; }
  std::uint64_t cancels_sent() const { return cancels_; }
  std::uint64_t total_limited_drops() const;
  std::size_t total_sessions() const;

  // End-of-run snapshot: system-wide counters ("pushback.*") plus a
  // histogram of per-agent rate-limiter drops.
  void export_telemetry(telemetry::Registry& registry) const;

 private:
  void on_timer();

  sim::Simulator& simulator_;
  net::Network& network_;
  net::ControlPlane& control_;
  PushbackParams params_;
  // Ordered: the timer visits agents by id, which fixes the order of the
  // control messages (and so of the control plane's RNG draws).
  std::map<sim::NodeId, std::unique_ptr<PushbackAgent>> agents_;
  std::uint64_t requests_ = 0;
  std::uint64_t cancels_ = 0;
  bool timer_started_ = false;
};

}  // namespace hbp::pushback
