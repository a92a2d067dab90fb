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

void CaptureRecorder::attach(telemetry::Registry& registry,
                             double attack_start_seconds) {
  attack_start_seconds_ = attack_start_seconds;
  captured_counter_ = &registry.counter("scenario.capture.captured");
  false_counter_ = &registry.counter("scenario.capture.false");
  delay_ms_ = &registry.histogram("scenario.capture.delay_ms");
}

void CaptureRecorder::on_capture(const core::CaptureEvent& e) {
  events_.push_back(e);
  if (attackers_.contains(e.host)) {
    ++captured_attackers_;
    if (captured_counter_ != nullptr) captured_counter_->add();
    if (delay_ms_ != nullptr) {
      const double ms =
          (e.when.to_seconds() - attack_start_seconds_) * 1000.0;
      delay_ms_->record(
          ms > 0.0 ? static_cast<std::uint64_t>(std::llround(ms)) : 0);
    }
  } else {
    ++false_captures_;
    if (false_counter_ != nullptr) false_counter_->add();
  }
}

double CaptureRecorder::capture_fraction() const {
  if (attackers_.empty()) return 0.0;
  return static_cast<double>(captured_attackers_) /
         static_cast<double>(attackers_.size());
}

std::vector<double> CaptureRecorder::capture_delays(
    double attack_start_seconds) const {
  std::vector<double> out;
  for (const auto& e : events_) {
    if (!attackers_.contains(e.host)) continue;
    out.push_back(e.when.to_seconds() - attack_start_seconds);
  }
  return out;
}

double CaptureRecorder::mean_capture_delay(double attack_start_seconds) const {
  const auto delays = capture_delays(attack_start_seconds);
  if (delays.empty()) return -1.0;
  double s = 0.0;
  for (double d : delays) s += d;
  return s / static_cast<double>(delays.size());
}

double CaptureRecorder::max_capture_delay(double attack_start_seconds) const {
  const auto delays = capture_delays(attack_start_seconds);
  if (delays.empty()) return -1.0;
  return *std::max_element(delays.begin(), delays.end());
}

}  // namespace hbp::scenario
