#include "pushback/agent.hpp"

#include <algorithm>

#include "pushback/maxmin.hpp"
#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace hbp::pushback {

PushbackAgent::PushbackAgent(PushbackSystem& system, net::Router& router)
    : system_(system), router_(router), drop_mark_(router.port_count()) {
  router_.add_filter(this);
  router_.add_tap(this);
  mark_drops();
}

PushbackAgent::~PushbackAgent() {
  router_.remove_filter(this);
  router_.remove_tap(this);
}

AggregateKey PushbackAgent::key_of(const sim::Packet& p) const {
  return p.dst >> system_.params().aggregate_prefix_shift;
}

PushbackAgent::Traffic& PushbackAgent::traffic(AggregateKey agg) {
  auto [it, created] = window_.try_emplace(agg);
  if (created) {
    it->second.in_bytes.resize(drop_mark_.size());
    it->second.out_bytes.resize(drop_mark_.size());
  }
  return it->second;
}

double PushbackAgent::port_weight(std::size_t port) const {
  return port < weights_.size() ? std::max(1e-9, weights_[port]) : 1.0;
}

void PushbackAgent::mark_drops() {
  for (std::size_t p = 0; p < drop_mark_.size(); ++p) {
    drop_mark_[p] = system_.network()
                        .link(router_.id(), static_cast<int>(p))
                        .queue()
                        .dropped_bytes();
  }
}

PushbackAgent::Session& PushbackAgent::set_limit(AggregateKey agg,
                                                 double limit_bps) {
  auto [it, created] = sessions_.try_emplace(
      agg, TokenBucket(limit_bps, system_.params().bucket_burst_bytes,
                       system_.simulator().now()));
  Session& session = it->second;
  if (!created) session.bucket.set_rate(limit_bps);
  return session;
}

net::FilterAction PushbackAgent::on_packet(const sim::Packet& p, int in_port) {
  const AggregateKey agg = key_of(p);
  const auto it = sessions_.find(agg);
  if (it == sessions_.end()) return net::FilterAction::kPass;
  if (it->second.bucket.allow(system_.simulator().now(), p.size_bytes)) {
    return net::FilterAction::kPass;
  }
  ++limited_drops_;
  sim::Simulator& simulator = system_.simulator();
  simulator.emit({simulator.now(), sim::TraceVerb::kPushbackLimit, router_.id(),
                  p.uid, static_cast<std::uint64_t>(agg), in_port, -1});
  // Limited bytes still count as demand for the upstream max-min split and
  // as congestion pressure for the calm detector.
  const auto bytes = static_cast<std::uint64_t>(p.size_bytes);
  Traffic& t = traffic(agg);
  t.limited_bytes += bytes;
  t.in_bytes[static_cast<std::size_t>(in_port)] += bytes;
  return net::FilterAction::kDrop;
}

void PushbackAgent::on_forward(const sim::Packet& p, int in_port, int out_port) {
  const auto bytes = static_cast<std::uint64_t>(p.size_bytes);
  Traffic& t = traffic(key_of(p));
  t.out_bytes[static_cast<std::size_t>(out_port)] += bytes;
  t.in_bytes[static_cast<std::size_t>(in_port)] += bytes;
}

void PushbackAgent::detect_congestion() {
  const double interval_s = system_.params().interval.to_seconds();
  const std::size_t ports = drop_mark_.size();
  std::vector<std::uint64_t> offered_bytes(ports, 0);
  for (const auto& [agg, t] : window_) {
    for (std::size_t p = 0; p < ports; ++p) offered_bytes[p] += t.out_bytes[p];
  }
  std::vector<bool> congested_port(ports, false);
  for (std::size_t p = 0; p < ports; ++p) {
    if (offered_bytes[p] == 0) continue;
    const double offered = static_cast<double>(offered_bytes[p]);
    const auto& link = system_.network().link(router_.id(), static_cast<int>(p));
    const double capacity = link.capacity_bps();
    const double drop_fraction =
        static_cast<double>(link.queue().dropped_bytes() - drop_mark_[p]) /
        offered;
    const double offered_bps = offered * 8.0 / interval_s;

    const bool congested =
        drop_fraction > system_.params().congestion_drop_rate &&
        offered_bps > capacity;
    if (!congested) continue;
    congested_port[p] = true;

    // ACC: bring the post-control load down to target_utilization.
    const double target_bps = system_.params().target_utilization * capacity;
    const double excess_bps = offered_bps - target_bps;
    if (excess_bps <= 0) continue;

    // Identify the responsible aggregates: the largest destination prefixes
    // through this port, until removing them would clear the excess.
    std::vector<std::pair<double, AggregateKey>> heavy;
    for (const auto& [agg, t] : window_) {
      if (t.out_bytes[p] == 0) continue;
      heavy.emplace_back(static_cast<double>(t.out_bytes[p]) * 8.0 / interval_s,
                         agg);
    }
    std::sort(heavy.rbegin(), heavy.rend());

    double picked_bps = 0.0;
    std::vector<std::pair<double, AggregateKey>> picked;
    for (const auto& [rate, agg] : heavy) {
      if (picked_bps >= excess_bps) break;
      picked.emplace_back(rate, agg);
      picked_bps += rate;
    }
    if (picked.empty()) continue;

    // The picked aggregates share whatever fits beside the untouched
    // traffic, max-min by demand.
    const double allowed_total =
        std::max(0.0, target_bps - (offered_bps - picked_bps));
    std::vector<double> demands;
    demands.reserve(picked.size());
    for (const auto& [rate, agg] : picked) demands.push_back(rate);
    const auto limits = maxmin_allocate(demands, allowed_total);

    for (std::size_t i = 0; i < picked.size(); ++i) {
      const AggregateKey agg = picked[i].second;
      Session& session =
          set_limit(agg, std::max(limits[i], system_.params().min_limit_bps));
      session.self_originated = true;
      session.calm_windows = 0;
      session.depth = 0;
    }
  }

  // Calm accounting for self-originated sessions: the aggregate is calm
  // only when its output port stopped overflowing AND the local limiter is
  // no longer shedding meaningful demand (otherwise the limiter itself is
  // what keeps the queue quiet and the control must persist).
  for (auto& [agg, session] : sessions_) {
    if (!session.self_originated) continue;
    const auto it = window_.find(agg);
    const double limited_bps =
        it == window_.end()
            ? 0.0
            : static_cast<double>(it->second.limited_bytes) * 8.0 / interval_s;
    bool congested =
        limited_bps > system_.params().min_limit_bps ||
        session.reported_demand_bps > session.bucket.rate_bps() * 1.05;
    if (!congested && it != window_.end()) {
      for (std::size_t p = 0; p < ports; ++p) {
        if (congested_port[p] && it->second.out_bytes[p] != 0) {
          congested = true;
          break;
        }
      }
    }
    if (congested) {
      session.calm_windows = 0;
    } else {
      ++session.calm_windows;
    }
  }
}

void PushbackAgent::propagate(AggregateKey agg, Session& session) {
  if (session.depth >= system_.params().max_depth) return;

  const auto it = window_.find(agg);
  if (it == window_.end()) return;

  // Demands per contributing input port (router neighbors only).
  std::vector<int> in_ports;
  std::vector<double> demands;
  std::vector<double> weights;
  const double interval_s = system_.params().interval.to_seconds();
  for (std::size_t port = 0; port < it->second.in_bytes.size(); ++port) {
    const std::uint64_t bytes = it->second.in_bytes[port];
    if (bytes == 0) continue;
    const sim::NodeId neighbor = router_.neighbor(port);
    if (system_.network().node(neighbor).kind() != net::NodeKind::kRouter) {
      continue;
    }
    in_ports.push_back(static_cast<int>(port));
    demands.push_back(static_cast<double>(bytes) * 8.0 / interval_s);
    weights.push_back(port_weight(port));
  }
  if (in_ports.empty()) return;

  const auto alloc =
      maxmin_allocate_weighted(demands, weights, session.bucket.rate_bps());
  for (std::size_t i = 0; i < in_ports.size(); ++i) {
    // Constrain contributors that exceed their share, and keep refreshing
    // ports already under a limit (their measured demand is post-limiting,
    // so it no longer looks excessive — dropping the refresh would let the
    // constraint expire and the flood resurge).
    if (alloc[i] >= demands[i] * 0.95 &&
        !session.upstream_ports.contains(in_ports[i])) {
      continue;
    }
    const double limit = std::max(alloc[i], system_.params().min_limit_bps);
    session.upstream_ports.insert(in_ports[i]);
    system_.send_request(router_.id(),
                         router_.neighbor(static_cast<std::size_t>(in_ports[i])),
                         agg, limit, session.depth + 1);
  }
}

void PushbackAgent::remove_session(AggregateKey agg, Session& session) {
  for (const int port : session.upstream_ports) {
    system_.send_cancel(router_.id(),
                        router_.neighbor(static_cast<std::size_t>(port)), agg);
  }
  sessions_.erase(agg);
}

void PushbackAgent::on_timer() {
  detect_congestion();

  const double interval_s = system_.params().interval.to_seconds();
  std::vector<AggregateKey> to_remove;
  for (auto& [agg, session] : sessions_) {
    if (session.self_originated) {
      if (session.calm_windows >= system_.params().expiry_windows) {
        to_remove.push_back(agg);
        continue;
      }
    } else {
      ++session.windows_since_refresh;
      if (session.windows_since_refresh > system_.params().expiry_windows) {
        to_remove.push_back(agg);
        continue;
      }
    }
    session.reported_demand_bps = 0.0;  // refreshed by incoming status

    // ACC status feedback: report this router's observed demand for the
    // aggregate (forwarded + locally limited) to whoever imposed the limit.
    if (!session.requesters.empty()) {
      double demand_bytes = 0.0;
      if (const auto it = window_.find(agg); it != window_.end()) {
        for (const std::uint64_t bytes : it->second.in_bytes) {
          demand_bytes += static_cast<double>(bytes);
        }
      }
      const double demand_bps = demand_bytes * 8.0 / interval_s;
      for (const sim::NodeId requester : session.requesters) {
        system_.send_status(requester, agg, demand_bps);
      }
    }

    propagate(agg, session);
  }
  for (const AggregateKey agg : to_remove) {
    remove_session(agg, sessions_.at(agg));
  }

  // Roll the window.
  mark_drops();
  window_.clear();
}

void PushbackAgent::receive_request(AggregateKey agg, double limit_bps,
                                    int depth, sim::NodeId from) {
  // A downstream request never loosens this router's own limit.
  if (const auto it = sessions_.find(agg);
      it != sessions_.end() && it->second.self_originated) {
    limit_bps = std::min(limit_bps, it->second.bucket.rate_bps());
  }
  Session& session = set_limit(agg, limit_bps);
  session.depth = std::max(session.depth, depth);
  session.requesters.insert(from);
  session.windows_since_refresh = 0;
}

void PushbackAgent::receive_status(AggregateKey agg, double demand_bps) {
  const auto it = sessions_.find(agg);
  if (it == sessions_.end()) return;
  it->second.reported_demand_bps += demand_bps;
}

void PushbackAgent::receive_cancel(AggregateKey agg, sim::NodeId from) {
  const auto it = sessions_.find(agg);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  session.requesters.erase(from);
  if (session.requesters.empty() && !session.self_originated) {
    remove_session(agg, session);
  }
}

PushbackSystem::PushbackSystem(sim::Simulator& simulator, net::Network& network,
                               net::ControlPlane& control,
                               const PushbackParams& params)
    : simulator_(simulator),
      network_(network),
      control_(control),
      params_(params) {}

void PushbackSystem::install(std::span<const sim::NodeId> routers) {
  for (const sim::NodeId r : routers) {
    auto& router = static_cast<net::Router&>(network_.node(r));
    agents_.try_emplace(r, std::make_unique<PushbackAgent>(*this, router));
  }
  if (!timer_started_) {
    timer_started_ = true;
    simulator_.after(params_.interval, [this] { on_timer(); },
                     "pushback.timer");
  }
}

void PushbackSystem::on_timer() {
  for (auto& [id, agent] : agents_) agent->on_timer();
  simulator_.after(params_.interval, [this] { on_timer(); },
                   "pushback.timer");
}

void PushbackSystem::send_request(sim::NodeId from, sim::NodeId to,
                                  AggregateKey agg, double limit_bps,
                                  int depth) {
  ++requests_;
  simulator_.emit({simulator_.now(), sim::TraceVerb::kPushbackRequest, from,
                   static_cast<std::uint64_t>(agg), 0, to, depth});
  control_.send("pushback_request", 1, [this, to, agg, limit_bps, depth, from] {
    if (PushbackAgent* agent = this->agent(to)) {
      agent->receive_request(agg, limit_bps, depth, from);
    }
  });
}

void PushbackSystem::send_cancel(sim::NodeId from, sim::NodeId to,
                                 AggregateKey agg) {
  ++cancels_;
  simulator_.emit({simulator_.now(), sim::TraceVerb::kPushbackCancel, from,
                   static_cast<std::uint64_t>(agg), 0, to, -1});
  control_.send("pushback_cancel", 1, [this, to, agg, from] {
    if (PushbackAgent* agent = this->agent(to)) {
      agent->receive_cancel(agg, from);
    }
  });
}

void PushbackSystem::send_status(sim::NodeId to, AggregateKey agg,
                                 double demand_bps) {
  control_.send("pushback_status", 1, [this, to, agg, demand_bps] {
    if (PushbackAgent* agent = this->agent(to)) {
      agent->receive_status(agg, demand_bps);
    }
  });
}

PushbackAgent* PushbackSystem::agent(sim::NodeId router) {
  const auto it = agents_.find(router);
  return it == agents_.end() ? nullptr : it->second.get();
}

std::uint64_t PushbackSystem::total_limited_drops() const {
  std::uint64_t total = 0;
  for (const auto& [id, agent] : agents_) total += agent->limited_drops();
  return total;
}

std::size_t PushbackSystem::total_sessions() const {
  std::size_t total = 0;
  for (const auto& [id, agent] : agents_) total += agent->active_sessions();
  return total;
}

void PushbackSystem::export_telemetry(telemetry::Registry& registry) const {
  registry.counter("pushback.requests_sent").add(requests_);
  registry.counter("pushback.cancels_sent").add(cancels_);
  registry.counter("pushback.limited_drops").add(total_limited_drops());
  registry.gauge("pushback.sessions")
      .set(static_cast<double>(total_sessions()));
  auto& per_agent = registry.histogram("pushback.agent.limited_drops");
  for (const auto& [id, agent] : agents_) {
    per_agent.record(agent->limited_drops());
  }
}

}  // namespace hbp::pushback
