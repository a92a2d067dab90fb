#include "honeypot/schedule.hpp"

#include <array>
#include <numeric>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace hbp::honeypot {

Schedule::Schedule(std::shared_ptr<const HashChain> chain, int n_servers,
                   sim::SimTime epoch_length)
    : chain_(std::move(chain)), n_(n_servers), m_(epoch_length) {
  HBP_ASSERT(chain_ != nullptr);
  HBP_ASSERT(n_ >= 1 && n_ <= kMaxServers);
  HBP_ASSERT(m_ > sim::SimTime::zero());
}

std::size_t Schedule::epoch_of(sim::SimTime t) const {
  HBP_ASSERT(t >= sim::SimTime::zero());
  return static_cast<std::size_t>(t.nanos() / epoch_length().nanos()) + 1;
}

sim::SimTime Schedule::epoch_start(std::size_t epoch) const {
  HBP_ASSERT(epoch >= 1);
  return sim::SimTime(static_cast<std::int64_t>(epoch - 1) *
                      epoch_length().nanos());
}

sim::SimTime Schedule::epoch_end(std::size_t epoch) const {
  return epoch_start(epoch) + epoch_length();
}

std::uint64_t Schedule::epoch_seed(std::size_t epoch) const {
  HBP_ASSERT(epoch >= 1);
  // Epochs beyond the chain wrap around; a production deployment would
  // provision a long-enough chain and re-key.
  const util::Digest& key = chain_->key(((epoch - 1) % chain_->length()) + 1);
  std::uint64_t s = 0;
  for (int i = 0; i < 8; ++i) s = (s << 8) | key[static_cast<std::size_t>(i)];
  return s;
}

RoamingSchedule::RoamingSchedule(std::shared_ptr<const HashChain> chain,
                                 int n_servers, int k_active,
                                 sim::SimTime epoch_length)
    : Schedule(std::move(chain), n_servers, epoch_length), k_(k_active) {
  HBP_ASSERT(k_ >= 1 && k_ <= n_servers);
}

Schedule::Mask RoamingSchedule::active_mask(std::size_t epoch) const {
  // The partial Fisher–Yates of util::Rng::choose, with the same draws, on
  // a stack array.
  util::Rng rng(epoch_seed(epoch));
  const auto n = static_cast<std::size_t>(server_count());
  std::array<std::uint8_t, kMaxServers> idx{};
  std::iota(idx.begin(), idx.begin() + n, std::uint8_t{0});
  Mask mask = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(k_); ++i) {
    std::swap(idx[i], idx[i + rng.below(n - i)]);
    mask |= Mask{1} << idx[i];
  }
  return mask;
}

BernoulliSchedule::BernoulliSchedule(std::shared_ptr<const HashChain> chain,
                                     double p, sim::SimTime epoch_length)
    : Schedule(std::move(chain), 1, epoch_length), p_(p) {
  HBP_ASSERT(p >= 0.0 && p <= 1.0);
}

Schedule::Mask BernoulliSchedule::active_mask(std::size_t epoch) const {
  util::Rng rng(epoch_seed(epoch));
  return rng.bernoulli(p_) ? 0 : 1;
}

}  // namespace hbp::honeypot
