// Experiment metrics: the client-throughput timeline of Fig. 8 and the
// capture bookkeeping behind Figs. 6/10/11.
//
// Both meters are backed by telemetry instruments registered on the
// simulator's registry, so scenario metrics and substrate metrics flow
// through one system and appear together in JSON run reports / CSV dumps:
//   scenario.goodput.bytes        time series (kSum, one bin per interval)
//   scenario.goodput.total_bytes  counter
//   scenario.capture.captured     counter (true attacker captures)
//   scenario.capture.false        counter (innocent hosts cut off)
//   scenario.capture.delay_ms     histogram (delay from attack start)
#pragma once

#include <cstdint>
#include <set>
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

// Scores capture events against the ground-truth attacker set.
class CaptureRecorder {
 public:
  void set_attackers(std::set<sim::NodeId> attackers) {
    attackers_ = std::move(attackers);
  }

  // Optional: also publish capture counts and the capture-delay histogram
  // (delays measured from `attack_start_seconds`, in milliseconds) as
  // scenario.capture.* instruments.
  void attach(telemetry::Registry& registry, double attack_start_seconds);

  // Wire as an HbpDefense capture listener.
  void on_capture(const core::CaptureEvent& e);

  std::size_t attackers_captured() const { return captured_attackers_; }
  std::size_t false_captures() const { return false_captures_; }
  double capture_fraction() const;

  // Capture delays measured from `attack_start`; empty if none captured.
  std::vector<double> capture_delays(double attack_start_seconds) const;
  double mean_capture_delay(double attack_start_seconds) const;
  double max_capture_delay(double attack_start_seconds) const;

  const std::vector<core::CaptureEvent>& events() const { return events_; }

 private:
  std::set<sim::NodeId> attackers_;
  std::vector<core::CaptureEvent> events_;
  std::size_t captured_attackers_ = 0;
  std::size_t false_captures_ = 0;

  double attack_start_seconds_ = 0.0;
  telemetry::Counter* captured_counter_ = nullptr;
  telemetry::Counter* false_counter_ = nullptr;
  telemetry::Log2Histogram* delay_ms_ = nullptr;
};

}  // namespace hbp::scenario
