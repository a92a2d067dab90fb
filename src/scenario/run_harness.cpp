#include "scenario/run_harness.hpp"

#include "net/invariant_checker.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"

namespace hbp::scenario {

RunHarness::RunHarness(const ObserveOptions& options)
    : trace_path_(options.trace_path),
      wall_start_(std::chrono::steady_clock::now()),
      network_(simulator_) {
  if (options.profile) simulator_.enable_profiling();
  if (!trace_path_.empty()) {
    tracer_ = std::make_unique<trace::Tracer>();
    tracer_->attach(simulator_, &network_);
  }
}

RunHarness::~RunHarness() = default;

void RunHarness::finish(RunRecord& record, double sim_seconds) {
  net::InvariantChecker(network_).expect_ok();

  record.trace_digest = simulator_.trace().value();
  record.events_executed = simulator_.events_executed();

  // End-of-run snapshots plus profiler dispatch counts (deterministic — the
  // wall times stay in record.perf).
  telemetry::Registry& registry = simulator_.telemetry();
  network_.export_telemetry(registry);
  if (tracer_) tracer_->export_counters(registry);
  if (const telemetry::LoopProfiler* prof = simulator_.profiler()) {
    for (const auto& ts : prof->by_type()) {
      registry.counter(std::string("sim.dispatch.") + ts.label).add(ts.count);
    }
    record.perf.peak_queue_depth = prof->peak_queue_depth();
    record.perf.event_types = prof->by_type();
  }
  record.telemetry = simulator_.telemetry_ptr();
  record.perf.wall_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - wall_start_)
                                 .count();
  record.perf.events_executed = simulator_.events_executed();
  record.perf.peak_rss_bytes = telemetry::peak_rss_bytes();
  record.perf.sim_seconds = sim_seconds;

  if (tracer_) {
    HBP_ASSERT_MSG(trace::write_trace_file(*tracer_, trace_path_),
                   "could not write the trace file");
  }
}

}  // namespace hbp::scenario
