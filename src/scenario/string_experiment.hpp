// Model-validation scenario (Section 8.2): a string topology with one
// server and one attacker h AS-hops away; measures the time from attack
// start to switch-port shutoff, to be compared with Eqs. (3)-(11).
#pragma once

#include <cstdint>
#include <optional>

#include "scenario/run_harness.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace hbp::scenario {

struct StringExperimentConfig : ObserveOptions {
  double m = 10.0;           // epoch length (s)
  double p = 0.3;            // honeypot probability per epoch
  int h = 10;                // chain routers / back-propagation AS hops
  double attacker_rate_bps = 0.1e6;
  int packet_size = 1000;
  double tau = 0.5;          // control-plane per-hop latency (s)
  bool progressive = false;  // basic scheme by default (as in Fig. 6)
  std::optional<double> onoff_t_on;  // optional on-off attack
  double onoff_t_off = 0.0;
  std::optional<double> follower_delay;  // optional follower attack
  double control_loss_probability = 0.0;  // lossy control plane
  double horizon_seconds = 2000.0;   // give up after this long
};

struct StringResult : RunRecord {
  bool captured = false;
  double capture_seconds = -1.0;  // from attack start (t = 0)
  std::uint64_t control_messages = 0;
  std::uint64_t reports = 0;      // progressive intermediate reports
};

StringResult run_string_experiment(const StringExperimentConfig& config,
                                   std::uint64_t seed);

// Mean capture time over `runs` seeds (only counting captured runs; the
// returned stats include the capture fraction).
struct StringSummary : RunTotals {
  util::RunningStats capture_time;
  int runs = 0;
  int captured = 0;
};
StringSummary run_string_replicated(const StringExperimentConfig& config,
                                    int runs, std::uint64_t base_seed,
                                    util::ThreadPool* pool = nullptr);

}  // namespace hbp::scenario
