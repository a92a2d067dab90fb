// Legitimate roaming client (Section 4, first deployment approach): tracks
// epoch lengths and active servers itself, holds a subscription key K_t,
// resubscribes when it expires, and re-targets a uniformly chosen active
// server each epoch.  A bounded clock skew (|skew| <= δ) models the loose
// synchronisation assumption; the server-side guard bands absorb packets
// the client sends around epoch boundaries.
#pragma once

#include <cstdint>

#include "honeypot/schedule.hpp"
#include "honeypot/server_pool.hpp"
#include "honeypot/subscription.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "traffic/cbr.hpp"
#include "util/rng.hpp"

namespace hbp::honeypot {

struct RoamingClientParams {
  traffic::CbrParams cbr;
  int trust_level = 4;
  sim::SimTime renewal_latency = sim::SimTime::millis(100);
  // Actual skew is drawn uniformly from [-max_clock_skew, +max_clock_skew];
  // must not exceed the pool's δ.
  sim::SimTime max_clock_skew = sim::SimTime::millis(100);
};

class RoamingClient {
 public:
  RoamingClient(sim::Simulator& simulator, net::Host& host, util::Rng& rng,
                const Schedule& schedule, SubscriptionService& subscription,
                const ServerPool& pool, const RoamingClientParams& params);

  // Subscribes and starts the CBR stream.
  void start();

  std::uint64_t packets_sent() const { return cbr_.packets_sent(); }
  std::uint64_t migrations() const { return migrations_; }
  std::uint64_t renewals() const { return renewals_; }
  std::uint64_t packets_skipped() const { return skipped_; }
  int current_server() const { return current_server_; }

 private:
  sim::Address next_destination();
  sim::SimTime local_time() const;

  sim::Simulator& simulator_;
  net::Host& host_;
  util::Rng& rng_;
  const Schedule& schedule_;
  SubscriptionService& subscription_;
  const ServerPool& pool_;
  RoamingClientParams params_;
  traffic::CbrSource cbr_;

  ClientKey key_{};
  sim::SimTime skew_ = sim::SimTime::zero();
  std::size_t cached_epoch_ = 0;
  int current_server_ = -1;
  bool renewing_ = false;
  std::uint64_t migrations_ = 0;
  std::uint64_t renewals_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace hbp::honeypot
