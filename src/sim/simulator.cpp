#include "sim/simulator.hpp"

#include "util/assert.hpp"

namespace hbp::sim {

void Simulator::dispatch(EventQueue::PoppedEvent&& ev) {
  HBP_ASSERT(ev.at >= now_);
  now_ = ev.at;
  ++executed_;
  trace_.fold_dispatch(ev.at, executed_);
  if (profiler_ == nullptr) {
    ev.fn();
    return;
  }
  // +1: the popped event itself was part of the pending set this instant.
  profiler_->note_queue_depth(queue_.size() + 1);
  const auto t0 = telemetry::LoopProfiler::Clock::now();
  ev.fn();
  profiler_->record(ev.label, telemetry::LoopProfiler::Clock::now() - t0);
}

void Simulator::run_until(SimTime horizon) {
  while (!queue_.empty() && queue_.next_time() <= horizon) {
    dispatch(queue_.pop());
  }
  if (now_ < horizon) now_ = horizon;
}

void Simulator::run_all() {
  while (!queue_.empty()) {
    dispatch(queue_.pop());
  }
}

telemetry::Registry& Simulator::telemetry() {
  if (telemetry_ == nullptr) {
    telemetry_ = std::make_shared<telemetry::Registry>();
  }
  return *telemetry_;
}

std::shared_ptr<telemetry::Registry> Simulator::telemetry_ptr() {
  telemetry();
  return telemetry_;
}

void Simulator::enable_profiling() {
  if (profiler_ == nullptr) {
    profiler_ = std::make_unique<telemetry::LoopProfiler>();
  }
}

}  // namespace hbp::sim
