// The Honeypot Session Manager and intra-AS machinery (Sections 5.1, 5.2).
//
// One HSM per deploying AS.  On a honeypot request it creates a honeypot
// session for the victim address S and diverts dst=S traffic at every AS
// edge router into itself (the iBGP next-hop announcement of the paper,
// modelled as a divert filter: the traffic would be discarded at the
// honeypot anyway, so the edge router reports the packet to the HSM and
// consumes it).  Ingress identification is one stamp, the edge id of the
// upstream cross link the packet arrived on — lg(n) bits for n edge
// routers, carried the same way by a GRE-style tunnel id or by marking the
// (otherwise unused) IP ID field.  Packets arriving on intra-AS ports carry
// no stamp: they originate inside the AS and trigger intra-AS
// back-propagation, a hop-by-hop input-debugging walk from the reporting
// (egress) router to the access routers, ending with MAC identification and
// switch-port shutoff.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/messages.hpp"
#include "net/router.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"
#include "topo/as_map.hpp"

namespace hbp::core {

class HbpDefense;
class Hsm;

// Intra-AS honeypot session at one router: observes dst=S traffic per input
// port (input debugging) and walks upstream (Section 5.2).
class HbpRouterAgent final : public net::ForwardTap {
 public:
  HbpRouterAgent(Hsm& hsm, net::Router& router);
  ~HbpRouterAgent() override;

  HbpRouterAgent(const HbpRouterAgent&) = delete;
  HbpRouterAgent& operator=(const HbpRouterAgent&) = delete;

  // `window` bounds every action of the session: outside it, traffic to
  // dst is no longer a trustworthy attack signature.
  void open_session(sim::Address dst, const SessionWindow& window);
  void close_session(sim::Address dst);

  // From the tap (interior routers) or from divert reports (edge routers).
  void observe(sim::Address dst, int in_port);

  void on_forward(const sim::Packet& p, int in_port, int out_port) override;

 private:
  // Blocks all traffic arriving on one port — used when a host hangs off
  // the router directly (no switch in between).
  class PortBlock final : public net::PacketFilter {
   public:
    explicit PortBlock(int port) : port_(port) {}
    net::FilterAction on_packet(const sim::Packet&, int in_port) override {
      return in_port == port_ ? net::FilterAction::kDrop
                              : net::FilterAction::kPass;
    }

   private:
    int port_;
  };

  struct LocalSession {
    SessionWindow window;
    std::set<int> propagated_ports;   // upstream routers already requested
    std::set<int> watched_switches;   // ports whose switch watch is running
  };

  void harvest(sim::Address dst, int switch_port);

  Hsm& hsm_;
  net::Router& router_;
  std::map<sim::Address, LocalSession> sessions_;
  std::vector<std::unique_ptr<PortBlock>> blocks_;
  std::vector<int> harvest_ports_;  // reused by every harvest tick
};

class Hsm {
 public:
  Hsm(HbpDefense& defense, const topo::AsInfo& info);
  ~Hsm();

  Hsm(const Hsm&) = delete;
  Hsm& operator=(const Hsm&) = delete;

  net::AsId as_id() const { return info_.id; }
  const topo::AsInfo& info() const { return info_; }

  // --- inter-AS message handling (MAC already verified by the defense) ---
  // Sessions are scoped by epoch: a request for a newer epoch replaces a
  // stale session, one for an older epoch is dropped, and a cancel closes
  // only the session of its own epoch.
  void receive_request(const HoneypotRequest& m);
  void receive_cancel(const HoneypotCancel& m);

  // --- data-plane callbacks ---
  // A diverted packet report from an edge router: the packet's dst and uid
  // plus the edge id its ingress stamped (kNoMark for traffic that entered
  // from inside this AS).
  void on_diverted(sim::NodeId edge_router, int in_port, sim::Address dst,
                   std::uint64_t uid, int stamp);
  // Intra-AS traceback reached a port crossing into another AS.
  void on_ingress_reached(sim::Address dst, sim::NodeId router, int port);

  // --- intra-AS helpers used by router agents ---
  void send_local_request(sim::NodeId from_router, sim::NodeId to_router,
                          sim::Address dst);
  net::Switch& switch_node(sim::NodeId id);
  HbpDefense& defense() { return defense_; }
  // An attack host on this AS was cut off for `dst`.
  void on_local_capture(sim::Address dst, sim::NodeId host);

  bool session_active(sim::Address dst) const { return sessions_.contains(dst); }
  std::uint64_t packets_diverted() const { return diverted_; }
  std::size_t session_count() const { return sessions_.size(); }
  std::uint64_t requests_received() const { return requests_received_; }
  std::uint64_t cancels_received() const { return cancels_received_; }

  // Test hook: make one edge router stamp a fixed wrong edge id
  // (compromised-router false-positive analysis, Section 5.1/5.3).  Call it
  // before the first session opens: a divert filter reads its stamps once.
  void compromise_edge_router(sim::NodeId router, int lie_edge_id);

 private:
  friend class HbpRouterAgent;

  // Divert filter installed on one edge router while the HSM has any
  // session; diverts traffic to every session's dst.
  class DivertFilter final : public net::PacketFilter {
   public:
    DivertFilter(Hsm& hsm, net::Router& router);
    ~DivertFilter();

    net::FilterAction on_packet(const sim::Packet& p, int in_port) override;

   private:
    Hsm& hsm_;
    net::Router& router_;
    // Ingress stamp per input port: the upstream cross link's edge id (or
    // a compromised router's lie); kNoMark on every other port.
    std::vector<int> stamps_;
  };

  struct HsmSession {
    std::size_t epoch = 0;
    SessionWindow window;
    std::uint64_t trace_cause = 0;  // of the request that opened it
    std::set<net::AsId> propagated_upstream;
    std::set<sim::NodeId> local_sessions;  // routers tracing intra-AS
    std::uint64_t captures = 0;  // attack hosts cut off under this session
  };

  void close_local_sessions(sim::Address dst, const HsmSession& session);
  // `cause_uid` is the uid of the diverted packet that triggered this step
  // (0 when the trigger was an aggregate observation); causal tracing only.
  void propagate_upstream(sim::Address dst, HsmSession& session,
                          net::AsId neighbor, std::uint64_t cause_uid = 0);
  HbpRouterAgent& agent(sim::NodeId router);
  void start_intra_as(sim::Address dst, HsmSession& session,
                      sim::NodeId router, int in_port,
                      std::uint64_t cause_uid = 0);

  HbpDefense& defense_;
  const topo::AsInfo& info_;
  std::map<sim::Address, HsmSession> sessions_;
  std::map<sim::NodeId, std::unique_ptr<DivertFilter>> filters_;
  std::map<sim::NodeId, std::unique_ptr<HbpRouterAgent>> agents_;
  std::map<sim::NodeId, int> lies_;  // compromised edge routers (tests)
  std::uint64_t diverted_ = 0;
  std::uint64_t requests_received_ = 0;
  std::uint64_t cancels_received_ = 0;
};

}  // namespace hbp::core
