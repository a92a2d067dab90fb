#include "net/control_plane.hpp"

#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace hbp::net {

sim::SimTime ControlPlane::sample_latency(int hops) {
  HBP_ASSERT(hops >= 0);
  const double base = params_.per_hop_latency.to_seconds() * hops;
  const double jitter = params_.jitter_fraction > 0.0
                            ? rng_.uniform(-params_.jitter_fraction,
                                           params_.jitter_fraction) * base
                            : 0.0;
  return sim::SimTime::seconds(base + jitter);
}

void ControlPlane::send(std::string_view kind, int hops, sim::Event deliver) {
  auto it = sent_.find(kind);
  if (it == sent_.end()) it = sent_.emplace(kind, 0).first;
  ++it->second;
  ++total_;
  if (params_.loss_probability > 0.0 && rng_.bernoulli(params_.loss_probability)) {
    ++lost_;
    return;
  }
  simulator_.after(sample_latency(hops), std::move(deliver),
                   "net.control.deliver");
}

std::uint64_t ControlPlane::messages_sent(std::string_view kind) const {
  const auto it = sent_.find(kind);
  return it == sent_.end() ? 0 : it->second;
}

void ControlPlane::export_telemetry(telemetry::Registry& registry) const {
  registry.counter("net.control.total").add(total_);
  registry.counter("net.control.lost").add(lost_);
  for (const auto& [kind, count] : sent_) {
    registry.counter("net.control.sent." + kind).add(count);
  }
}

}  // namespace hbp::net
