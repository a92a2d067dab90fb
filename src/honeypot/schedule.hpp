// Pseudo-random roaming schedule shared by servers and legitimate clients.
//
// Each epoch i, the key K_i of the hash chain seeds a deterministic draw of
// the k active servers out of N; the other N-k act as honeypots
// (Section 4).  Anyone holding K_i (servers; subscribed clients) computes
// the same active set; an outside attacker cannot predict it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "honeypot/hash_chain.hpp"
#include "sim/time.hpp"

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
  virtual ~Schedule() = default;

  virtual int server_count() const = 0;
  virtual sim::SimTime epoch_length() const = 0;

  // Active-set query; epoch indices start at 1 (epoch i covers
  // [(i-1)*m, i*m)).
  virtual bool is_active(int server, std::size_t epoch) const = 0;
  virtual std::vector<int> active_servers(std::size_t epoch) const = 0;

  // Probability that a given server is a honeypot in a given epoch.
  virtual double honeypot_probability() const = 0;

  std::size_t epoch_of(sim::SimTime t) const;
  sim::SimTime epoch_start(std::size_t epoch) const;
  sim::SimTime epoch_end(std::size_t epoch) const;
};

// The paper's k-of-N roaming schedule.
class RoamingSchedule final : public Schedule {
 public:
  RoamingSchedule(std::shared_ptr<const HashChain> chain, int n_servers,
                  int k_active, sim::SimTime epoch_length);

  int server_count() const override { return n_; }
  sim::SimTime epoch_length() const override { return m_; }
  bool is_active(int server, std::size_t epoch) const override;
  std::vector<int> active_servers(std::size_t epoch) const override;
  double honeypot_probability() const override {
    return static_cast<double>(n_ - k_) / static_cast<double>(n_);
  }
  int active_count() const { return k_; }

 private:
  std::uint64_t epoch_seed(std::size_t epoch) const;

  std::shared_ptr<const HashChain> chain_;
  int n_;
  int k_;
  sim::SimTime m_;
};

// Single-server schedule where each epoch is independently a honeypot epoch
// with probability p — the Bernoulli-trial model of the Section 7 analysis,
// used by the Fig. 6 validation sweeps (p is swept freely there, which k/N
// cannot express for one server).
class BernoulliSchedule final : public Schedule {
 public:
  BernoulliSchedule(std::shared_ptr<const HashChain> chain, double p,
                    sim::SimTime epoch_length);

  int server_count() const override { return 1; }
  sim::SimTime epoch_length() const override { return m_; }
  bool is_active(int server, std::size_t epoch) const override;
  std::vector<int> active_servers(std::size_t epoch) const override;
  double honeypot_probability() const override { return p_; }

 private:
  std::shared_ptr<const HashChain> chain_;
  double p_;
  sim::SimTime m_;
};

}  // namespace hbp::honeypot
