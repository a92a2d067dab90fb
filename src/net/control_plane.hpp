// Control-plane message transport.
//
// Honeypot request/cancel, intermediate-AS reports, and pushback messages
// are small authenticated messages that can be piggybacked on BGP/hop-by-hop
// exchanges (Sections 5.1, 5.3).  They are modelled with an explicit per-hop
// latency τ (plus jitter) rather than competing with attack traffic in the
// data-plane queues — matching the paper's analysis where τ is "the average
// time required for the honeypot request message to propagate one AS hop
// upstream and set up a honeypot session".
//
// An optional loss probability exercises the progressive scheme's
// lost-report handling (Section 6, rule 1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hbp::telemetry {
class Registry;
}

namespace hbp::net {

class ControlPlane {
 public:
  struct Params {
    sim::SimTime per_hop_latency = sim::SimTime::millis(50);
    double jitter_fraction = 0.1;  // uniform +/- fraction of the latency
    double loss_probability = 0.0;
    std::uint64_t seed = 0x5eed;
  };

  ControlPlane(sim::Simulator& simulator, const Params& params)
      : simulator_(simulator), params_(params), rng_(params.seed) {}

  // Schedules `deliver` after `hops` control-plane hops of latency; the
  // message may be lost (deliver never runs) with the configured
  // probability.  `kind` is an accounting label (e.g. "honeypot_request").
  // Owning closure: temporaries are fine, and large signed messages may
  // legitimately spill the event's inline buffer (this is not a packet path).
  void send(std::string_view kind, int hops, sim::Event deliver);

  // Latency draw for a given hop count (used by analysis-facing tests).
  sim::SimTime sample_latency(int hops);

  std::uint64_t messages_sent(std::string_view kind) const;
  std::uint64_t total_messages() const { return total_; }
  std::uint64_t messages_lost() const { return lost_; }

  const Params& params() const { return params_; }

  // End-of-run snapshot: per-kind send counts ("net.control.sent.<kind>"),
  // totals, and losses.
  void export_telemetry(telemetry::Registry& registry) const;

 private:
  sim::Simulator& simulator_;
  Params params_;
  util::Rng rng_;
  // Transparent comparator: a kind is looked up without building a string,
  // which is allocated once, on first use.
  std::map<std::string, std::uint64_t, std::less<>> sent_;
  std::uint64_t total_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace hbp::net
