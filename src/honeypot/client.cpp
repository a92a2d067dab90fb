#include "honeypot/client.hpp"

#include "util/assert.hpp"

namespace hbp::honeypot {

RoamingClient::RoamingClient(sim::Simulator& simulator, net::Host& host,
                             util::Rng& rng, const Schedule& schedule,
                             SubscriptionService& subscription,
                             const ServerPool& pool,
                             const RoamingClientParams& params)
    : simulator_(simulator),
      host_(host),
      rng_(rng),
      schedule_(schedule),
      subscription_(subscription),
      pool_(pool),
      params_(params),
      cbr_(simulator, host, rng, params.cbr, [this] { return next_destination(); }) {
  const double bound = params_.max_clock_skew.to_seconds();
  skew_ = sim::SimTime::seconds(rng_.uniform(-bound, bound));
}

sim::SimTime RoamingClient::local_time() const {
  const sim::SimTime t = simulator_.now() + skew_;
  return t >= sim::SimTime::zero() ? t : sim::SimTime::zero();
}

void RoamingClient::start() {
  key_ = subscription_.subscribe(schedule_.epoch_of(local_time()),
                                 params_.trust_level);
  cbr_.start();
}

sim::Address RoamingClient::next_destination() {
  const std::size_t epoch = schedule_.epoch_of(local_time());

  if (epoch > key_.epoch_limit) {
    // Subscription expired: contact the subscription service; packets are
    // skipped until the new key arrives.
    if (!renewing_) {
      renewing_ = true;
      simulator_.after(
          params_.renewal_latency,
          [this] {
            key_ = subscription_.renew(schedule_.epoch_of(local_time()),
                                       params_.trust_level);
            ++renewals_;
            renewing_ = false;
          },
          "honeypot.client.renew");
    }
    ++skipped_;
    return 0;
  }

  if (epoch != cached_epoch_) {
    cached_epoch_ = epoch;
    const Schedule::Mask actives = schedule_.active_mask(epoch);
    HBP_ASSERT_MSG(actives != 0, "schedule produced an empty active set");
    const int chosen = nth_server(actives, rng_.below(std::popcount(actives)));
    if (chosen != current_server_) {
      current_server_ = chosen;
      ++migrations_;
      sim::Packet syn;
      syn.type = sim::PacketType::kHandshakeSyn;
      syn.src = host_.address();
      syn.dst = pool_.address(current_server_);
      syn.size_bytes = 64;
      host_.send(std::move(syn));
    }
  }

  return pool_.address(current_server_);
}

}  // namespace hbp::honeypot
