#include "honeypot/tcp_client.hpp"

#include "util/assert.hpp"

namespace hbp::honeypot {

RoamingTcpClient::RoamingTcpClient(sim::Simulator& simulator, net::Host& host,
                                   util::Rng& rng, const Schedule& schedule,
                                   const ServerPool& pool,
                                   sim::SimTime max_clock_skew,
                                   const transport::TcpParams& tcp)
    : simulator_(simulator),
      rng_(rng),
      schedule_(schedule),
      pool_(pool),
      sender_(simulator, host, tcp) {
  const double bound = max_clock_skew.to_seconds();
  skew_ = sim::SimTime::seconds(rng_.uniform(-bound, bound));
}

sim::SimTime RoamingTcpClient::local_time() const {
  const sim::SimTime t = simulator_.now() + skew_;
  return t >= sim::SimTime::zero() ? t : sim::SimTime::zero();
}

void RoamingTcpClient::start() {
  retarget(schedule_.epoch_of(local_time()));
  on_epoch_boundary();
}

void RoamingTcpClient::retarget(std::size_t epoch) {
  const Schedule::Mask actives = schedule_.active_mask(epoch);
  HBP_ASSERT_MSG(actives != 0, "no active server to connect to");
  if (current_server_ >= 0) ++migrations_;
  current_server_ = nth_server(actives, rng_.below(std::popcount(actives)));
  sender_.connect(pool_.address(current_server_));
}

void RoamingTcpClient::on_epoch_boundary() {
  const std::size_t epoch = schedule_.epoch_of(local_time());
  if (current_server_ < 0 || !schedule_.is_active(current_server_, epoch)) {
    retarget(epoch);
  }
  // Wake at the next epoch boundary by this client's (skewed) clock.
  const sim::SimTime next_local = schedule_.epoch_end(epoch);
  sim::SimTime wake = next_local - skew_;
  if (wake <= simulator_.now()) {
    wake = simulator_.now() + sim::SimTime::millis(1);
  }
  simulator_.at(wake, [this] { on_epoch_boundary(); },
                "honeypot.client.epoch");
}

}  // namespace hbp::honeypot
