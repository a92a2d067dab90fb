#include "core/defense.hpp"

#include <algorithm>
#include <string>
#include <type_traits>

#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace hbp::core {

namespace {

// Progressive scheme: after a window ends, the server waits this long for
// the round's intermediate reports before scheduling the next epoch's
// direct requests.
constexpr sim::SimTime kReportGrace = sim::SimTime::seconds(1.5);

}  // namespace

HbpDefense::HbpDefense(sim::Simulator& simulator, net::Network& network,
                       net::ControlPlane& control, honeypot::ServerPool& pool,
                       const topo::AsMap& as_map, const HbpParams& params)
    : simulator_(simulator),
      network_(network),
      control_(control),
      pool_(pool),
      as_map_(as_map),
      params_(params),
      keys_(params.master_secret),
      windows_(static_cast<std::size_t>(pool.server_count())),
      progressive_(static_cast<std::size_t>(pool.server_count()),
                   ProgressiveManager(params.rho)),
      requested_(static_cast<std::size_t>(pool.server_count())) {}

HbpDefense::~HbpDefense() = default;

void HbpDefense::start() {
  HBP_ASSERT_MSG(hsms_.empty(), "start() must be called once");
  hsms_.resize(as_map_.count());
  for (std::size_t as = 0; as < as_map_.count(); ++as) {
    const auto id = static_cast<net::AsId>(as);
    if (!params_.deployment.deploys(id)) continue;
    hsms_[as] = std::make_unique<Hsm>(*this, as_map_.info(id));
  }
  for (int s = 0; s < pool_.server_count(); ++s) {
    HBP_ASSERT_MSG(hsm(home_as(s)) != nullptr,
                   "the victim's home AS must deploy the scheme");
  }

  pool_.add_honeypot_window_listener(
      honeypot::ServerPool::WindowFn::bind<&HbpDefense::on_window_start>(*this),
      honeypot::ServerPool::WindowFn::bind<&HbpDefense::on_window_end>(*this));
  pool_.add_honeypot_hit_listener(
      honeypot::ServerPool::HitFn::bind<&HbpDefense::on_honeypot_hit>(*this));
}

Hsm* HbpDefense::hsm(net::AsId as) {
  // `as` may come straight from a (forged) message.
  if (as < 0 || static_cast<std::size_t>(as) >= hsms_.size()) return nullptr;
  return hsms_[static_cast<std::size_t>(as)].get();
}

net::AsId HbpDefense::home_as(int server) const {
  return network_.node(pool_.node(server)).as_id();
}

std::size_t HbpDefense::next_honeypot_epoch(int server,
                                            std::size_t after) const {
  const auto& schedule = pool_.schedule();
  for (std::size_t e = after + 1; e < after + 1000; ++e) {
    if (!schedule.is_active(server, e)) return e;
  }
  return 0;  // none found in horizon
}

void HbpDefense::on_window_start(int server, std::size_t epoch) {
  auto& w = windows_[static_cast<std::size_t>(server)];
  w = ServerWindow{};
  w.epoch = epoch;
  w.open = true;
}

void HbpDefense::on_honeypot_hit(int server, const sim::Packet& p) {
  auto& w = windows_[static_cast<std::size_t>(server)];
  if (!w.open) return;
  ++w.hits;
  if (p.is_attack) ++w.attack_hits;
  w.last_hit_uid = p.uid;
  if (!w.activated && w.hits >= params_.activation_threshold) {
    w.activated = true;
    ++activations_;
    if (w.attack_hits == 0) ++false_activations_;
    simulator_.emit({simulator_.now(), sim::TraceVerb::kActivate,
                     pool_.node(server), p.uid, p.uid, server,
                     static_cast<std::int32_t>(w.epoch)});
    activate(server);
  }
}

template <typename Message>
void HbpDefense::post(Message m, int hops) {
  keys_.sign(m, keys_.key_for(m));
  control_.send(Message::kKind, hops, [this, m] { deliver(m); });
}

template <typename Message>
bool HbpDefense::authentic(const Message& m) {
  if (keys_.verify(m, keys_.key_for(m))) return true;
  ++forged_rejected_;
  return false;
}

void HbpDefense::activate(int server) {
  // "Whenever the server S starts a honeypot epoch, it sends a honeypot
  // request message to the HSM(s) of its AS(s)" — gated here by the
  // activation threshold.  The server speaks for its home AS.
  const auto& w = windows_[static_cast<std::size_t>(server)];
  const net::AsId home = home_as(server);
  requested_[static_cast<std::size_t>(server)][w.epoch].insert(home);
  simulator_.emit({simulator_.now(), sim::TraceVerb::kRequestSend,
                   pool_.node(server), w.last_hit_uid, w.last_hit_uid, home,
                   home});
  post(HoneypotRequest{.dst = pool_.address(server),
                       .epoch = w.epoch,
                       .window = pool_.honeypot_window(w.epoch),
                       .from_as = home,
                       .to_as = home,
                       .trace_cause = w.last_hit_uid},
       1);
}

void HbpDefense::on_window_end(int server, std::size_t epoch) {
  auto& w = windows_[static_cast<std::size_t>(server)];
  w.open = false;

  // Cancel every session tree rooted this epoch (home AS plus progressive
  // direct targets).
  auto& by_epoch = requested_[static_cast<std::size_t>(server)];
  const auto it = by_epoch.find(epoch);
  if (it != by_epoch.end()) {
    const net::AsId home = home_as(server);
    for (const net::AsId as : it->second) {
      simulator_.emit({simulator_.now(), sim::TraceVerb::kCancelSend,
                       pool_.node(server), 0, 0, home, as});
      post(HoneypotCancel{.dst = pool_.address(server),
                          .epoch = epoch,
                          .from_as = home,
                          .to_as = as,
                          .from_server = true},
           1 + std::max(0, as_map_.as_hop_distance(home, as)));
    }
    by_epoch.erase(it);
  }

  if (params_.progressive) {
    // Give the intermediate reports time to arrive, then close the round
    // and schedule the next epoch's direct requests.
    simulator_.after(kReportGrace,
                     [this, server] { schedule_direct_requests(server); },
                     "core.defense.round");
  }
}

void HbpDefense::schedule_direct_requests(int server) {
  const auto entries = progressive_[static_cast<std::size_t>(server)].end_round();
  if (entries.empty()) return;

  const std::size_t next_epoch =
      next_honeypot_epoch(server, pool_.schedule().epoch_of(simulator_.now()));
  if (next_epoch == 0) return;
  const SessionWindow window = pool_.honeypot_window(next_epoch);

  for (const auto& entry : entries) {
    // "At t_A + τ seconds before the next honeypot epoch, a request message
    // is sent to each AS A in the intermediate-AS list."
    const sim::SimTime lead =
        sim::SimTime::seconds(entry.t_a_seconds) + params_.tau_estimate;
    sim::SimTime when = window.start - lead;
    if (when < simulator_.now()) when = simulator_.now();

    // The closure keeps what the server index cannot recompute, so it
    // stays in the event's inline buffer; the request is built at firing.
    simulator_.at(when, [this, server, next_epoch, window, to_as = entry.as] {
      const HoneypotRequest m{.dst = pool_.address(server),
                              .epoch = next_epoch,
                              .window = window,
                              .from_as = home_as(server),
                              .to_as = to_as,
                              .progressive_direct = true};
      requested_[static_cast<std::size_t>(server)][m.epoch].insert(m.to_as);
      simulator_.emit({simulator_.now(), sim::TraceVerb::kDirectRequest,
                       pool_.node(server), 0, 0, m.to_as,
                       static_cast<std::int32_t>(m.epoch)});
      post(m, 1 + std::max(0, as_map_.as_hop_distance(m.from_as, m.to_as)));
    }, "core.defense.direct_request");
  }
}

template <typename Message>
void HbpDefense::propagate(Message m, int extra_hops) {
  if (hsm(m.to_as) != nullptr) {
    constexpr bool kRequest = std::is_same_v<Message, HoneypotRequest>;
    std::uint64_t cause = 0;
    if constexpr (kRequest) cause = m.trace_cause;
    simulator_.emit({simulator_.now(),
                     kRequest ? sim::TraceVerb::kRequestSend
                              : sim::TraceVerb::kCancelSend,
                     sim::kInvalidNode, cause, cause, m.from_as, m.to_as});
    post(m, 1 + extra_hops);
    return;
  }
  // Deployment gap (Section 5.3): broadcast over routing announcements to
  // every upstream AS of the non-deploying one, until deploying ASs resume
  // normal propagation.
  ++bridged_;
  const net::AsId gap = m.to_as;
  for (const net::AsId up : as_map_.info(gap).upstream) {
    m.to_as = up;
    propagate(m, extra_hops + 1);
  }
}

template void HbpDefense::propagate(HoneypotRequest m, int extra_hops);
template void HbpDefense::propagate(HoneypotCancel m, int extra_hops);

void HbpDefense::report_to_server(net::AsId from, sim::Address dst,
                                  std::size_t epoch) {
  const int server = pool_.index_of(dst);
  if (server < 0) return;
  simulator_.emit({simulator_.now(), sim::TraceVerb::kReportSend,
                   sim::kInvalidNode, 0, 0, from,
                   static_cast<std::int32_t>(epoch)});
  post(IntermediateReport{.as = from,
                          .dst = dst,
                          .epoch = epoch,
                          .stamped_at = simulator_.now()},
       1 + std::max(0, as_map_.as_hop_distance(from, home_as(server))));
}

void HbpDefense::deliver(const HoneypotRequest& m) {
  Hsm* target = hsm(m.to_as);
  if (target != nullptr && authentic(m)) target->receive_request(m);
}

void HbpDefense::deliver(const HoneypotCancel& m) {
  Hsm* target = hsm(m.to_as);
  if (target != nullptr && authentic(m)) target->receive_cancel(m);
}

void HbpDefense::deliver(const IntermediateReport& m) {
  if (!authentic(m)) return;
  const int server = pool_.index_of(m.dst);
  if (server < 0) return;
  progressive_[static_cast<std::size_t>(server)].on_report(
      m.as, m.stamped_at, simulator_.now());
}

void HbpDefense::export_telemetry(telemetry::Registry& registry) const {
  registry.counter("core.defense.activations").add(activations_);
  registry.counter("core.defense.false_activations").add(false_activations_);
  registry.counter("core.defense.forged_rejected").add(forged_rejected_);
  registry.counter("core.defense.bridged_messages").add(bridged_);
  registry.counter("core.defense.captures").add(captures_.size());
  for (const auto& hsm : hsms_) {
    if (hsm == nullptr) continue;
    const std::string prefix = "core.hsm." + std::to_string(hsm->as_id());
    registry.counter(prefix + ".requests").add(hsm->requests_received());
    registry.counter(prefix + ".cancels").add(hsm->cancels_received());
    registry.counter(prefix + ".diverted").add(hsm->packets_diverted());
  }
}

void HbpDefense::on_capture(sim::NodeId host, sim::Address dst,
                            std::uint64_t cause) {
  if (captured_hosts_.contains(host)) return;
  captured_hosts_.insert(host);
  simulator_.emit({simulator_.now(), sim::TraceVerb::kCapture, host, cause,
                   cause, static_cast<std::int32_t>(dst), -1});
  captures_.push_back({host, dst, simulator_.now()});
}

}  // namespace hbp::core
