// Experiment metrics: the client-throughput timeline of Fig. 8 and the
// capture scoring behind Figs. 10/11.
//
// The throughput meter records into telemetry instruments as the run goes;
// the capture score is computed once at the end from the defense's capture
// log.  Both publish on the simulator's registry, so scenario metrics and
// substrate metrics appear together in JSON run reports / CSV dumps:
//   scenario.goodput.bytes        time series (kSum, one bin per interval)
//   scenario.goodput.total_bytes  counter
//   scenario.capture.captured     counter (true attacker captures)
//   scenario.capture.false        counter (innocent hosts cut off)
//   scenario.capture.delay_ms     histogram (delay from attack start)
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "core/defense.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/instruments.hpp"

namespace hbp::scenario {

// Bins legitimate goodput delivered at the servers into fixed intervals and
// reports it as a fraction of a reference capacity (the bottleneck link) —
// exactly the y-axis of Figs. 8/10/11.
class ThroughputMeter {
 public:
  ThroughputMeter(sim::Simulator& simulator, double reference_bps,
                  sim::SimTime bin = sim::SimTime::seconds(1));

  // Wire as a ServerPool delivery listener.
  void on_delivery(int server, const sim::Packet& p);

  struct Point {
    double t_seconds;
    double fraction;  // of the reference capacity
  };
  std::vector<Point> timeline(double until_seconds) const;

  // Mean fraction over [t0, t1).
  double mean_fraction(double t0, double t1) const;

  std::uint64_t total_bytes() const { return total_bytes_.value(); }

 private:
  sim::Simulator& simulator_;
  double reference_bps_;
  sim::SimTime bin_;
  telemetry::TimeSeries& series_;
  telemetry::Counter& total_bytes_;
};

// A run's capture log scored against the ground-truth attacker set.
struct CaptureScore {
  std::size_t captured = 0;        // attacker hosts captured
  std::size_t false_captures = 0;  // innocent hosts cut off
  double mean_delay = -1.0;        // seconds from attack start; -1 if none
  double max_delay = -1.0;
};

// Scores `log` (HbpDefense::captures(); empty for other schemes) against
// `attackers` and publishes the scenario.capture.* instruments on
// `registry`, delays in milliseconds from `attack_start_seconds`.
CaptureScore score_captures(std::span<const core::CaptureEvent> log,
                            const std::set<sim::NodeId>& attackers,
                            double attack_start_seconds,
                            telemetry::Registry& registry);

}  // namespace hbp::scenario
