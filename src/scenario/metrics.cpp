#include "scenario/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace hbp::scenario {

ThroughputMeter::ThroughputMeter(sim::Simulator& simulator,
                                 double reference_bps, sim::SimTime bin)
    : simulator_(simulator),
      reference_bps_(reference_bps),
      bin_(bin),
      series_(simulator.telemetry().time_series("scenario.goodput.bytes", bin)),
      total_bytes_(simulator.telemetry().counter("scenario.goodput.total_bytes")) {
  HBP_ASSERT(reference_bps > 0);
  HBP_ASSERT(bin > sim::SimTime::zero());
}

void ThroughputMeter::on_delivery(int server, const sim::Packet& p) {
  (void)server;
  if (p.is_attack) return;
  if (p.type != sim::PacketType::kData && p.type != sim::PacketType::kRequest) {
    return;
  }
  series_.record(simulator_.now(), static_cast<double>(p.size_bytes));
  total_bytes_.add(static_cast<std::uint64_t>(p.size_bytes));
}

std::vector<ThroughputMeter::Point> ThroughputMeter::timeline(
    double until_seconds) const {
  std::vector<Point> out;
  const double bin_s = bin_.to_seconds();
  const auto bins = static_cast<std::size_t>(until_seconds / bin_s);
  out.reserve(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    out.push_back(Point{static_cast<double>(b) * bin_s,
                        series_.bin_value(b) * 8.0 / bin_s / reference_bps_});
  }
  return out;
}

double ThroughputMeter::mean_fraction(double t0, double t1) const {
  HBP_ASSERT(t1 > t0);
  const double bin_s = bin_.to_seconds();
  const auto b0 = static_cast<std::size_t>(t0 / bin_s);
  const auto b1 = static_cast<std::size_t>(t1 / bin_s);
  double bytes = 0.0;
  for (std::size_t b = b0; b < b1; ++b) bytes += series_.bin_value(b);
  return bytes * 8.0 / (t1 - t0) / reference_bps_;
}

CaptureScore score_captures(std::span<const core::CaptureEvent> log,
                            const std::set<sim::NodeId>& attackers,
                            double attack_start_seconds,
                            telemetry::Registry& registry) {
  auto& delay_ms = registry.histogram("scenario.capture.delay_ms");
  CaptureScore score;
  double delay_sum = 0.0;
  for (const core::CaptureEvent& e : log) {
    if (!attackers.contains(e.host)) {
      ++score.false_captures;
      continue;
    }
    ++score.captured;
    const double delay = e.when.to_seconds() - attack_start_seconds;
    delay_sum += delay;
    score.max_delay = score.captured == 1 ? delay
                                          : std::max(score.max_delay, delay);
    const double ms = delay * 1000.0;
    delay_ms.record(ms > 0.0 ? static_cast<std::uint64_t>(std::llround(ms))
                             : 0);
  }
  if (score.captured > 0) {
    score.mean_delay = delay_sum / static_cast<double>(score.captured);
  }
  registry.counter("scenario.capture.captured").add(score.captured);
  registry.counter("scenario.capture.false").add(score.false_captures);
  return score;
}

}  // namespace hbp::scenario
