// Pseudo-random roaming schedule shared by servers and legitimate clients.
//
// Each epoch i, the key K_i of the hash chain seeds a deterministic draw of
// the k active servers out of N; the other N-k act as honeypots
// (Section 4).  Anyone holding K_i (servers; subscribed clients) computes
// the same active set; an outside attacker cannot predict it.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>

#include "honeypot/hash_chain.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace hbp::honeypot {

// The honeypot observation window: traffic to the honeypot address is a
// valid attack signature only inside [start, end].  Sessions may be set up
// before the window opens (progressive direct requests arrive t_A + τ
// early) and cancelled after it closes (control latency), so every
// data-driven action — diversion, ingress identification, input debugging,
// switch-port harvesting — is gated on this window.
struct SessionWindow {
  sim::SimTime start = sim::SimTime::zero();
  sim::SimTime end = sim::SimTime::zero();

  bool contains(sim::SimTime t) const { return t >= start && t <= end; }
};

class Schedule {
 public:
  // One bit per server: bit s is set when server s is active.
  using Mask = std::uint64_t;
  static constexpr int kMaxServers = 64;

  virtual ~Schedule() = default;

  // The active set of an epoch; epoch indices start at 1 (epoch i covers
  // [(i-1)*m, i*m)).  Each query seeds its own Rng from K_i, so it draws
  // from no shared stream and allocates nothing.
  virtual Mask active_mask(std::size_t epoch) const = 0;

  bool is_active(int server, std::size_t epoch) const {
    HBP_ASSERT(server >= 0 && server < n_);
    return (active_mask(epoch) >> server) & 1;
  }
  int server_count() const { return n_; }
  sim::SimTime epoch_length() const { return m_; }

  std::size_t epoch_of(sim::SimTime t) const;
  sim::SimTime epoch_start(std::size_t epoch) const;
  sim::SimTime epoch_end(std::size_t epoch) const;

 protected:
  Schedule(std::shared_ptr<const HashChain> chain, int n_servers,
           sim::SimTime epoch_length);

  // The Rng seed of epoch `epoch`: the first 8 bytes of K_i.
  std::uint64_t epoch_seed(std::size_t epoch) const;

 private:
  std::shared_ptr<const HashChain> chain_;
  int n_;
  sim::SimTime m_;
};

// The server that is the i-th lowest set bit of `active` (i < its popcount):
// a client that draws i uniformly picks a uniform active server.
inline int nth_server(Schedule::Mask active, std::uint64_t i) {
  for (; i > 0; --i) active &= active - 1;
  return std::countr_zero(active);
}

// The paper's k-of-N roaming schedule.
class RoamingSchedule final : public Schedule {
 public:
  RoamingSchedule(std::shared_ptr<const HashChain> chain, int n_servers,
                  int k_active, sim::SimTime epoch_length);

  Mask active_mask(std::size_t epoch) const override;

 private:
  int k_;
};

// Single-server schedule where each epoch is independently a honeypot epoch
// with probability p — the Bernoulli-trial model of the Section 7 analysis,
// used by the Fig. 6 validation sweeps (p is swept freely there, which k/N
// cannot express for one server).
class BernoulliSchedule final : public Schedule {
 public:
  BernoulliSchedule(std::shared_ptr<const HashChain> chain, double p,
                    sim::SimTime epoch_length);

  Mask active_mask(std::size_t epoch) const override;

 private:
  double p_;
};

}  // namespace hbp::honeypot
