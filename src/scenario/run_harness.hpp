// What every scenario run shares, whichever topology it builds: the
// observation options, the simulator/network/tracer it runs on, the
// end-of-run epilogue, and the per-run and per-sweep records.
//
// The tree and string runners differ only in the scenario they build on
// harness.network() and in what they read off it afterwards; profiling,
// tracing, the invariant audit and the host measurements are wired here
// once.  Observation is passive: digests are bit-identical with profiling
// and tracing on or off.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/report.hpp"
#include "util/thread_pool.hpp"

namespace hbp::trace {
class Tracer;
}

namespace hbp::scenario {

// Observation knobs of a run; both experiment configs inherit them.
struct ObserveOptions {
  // Event-loop profiling (per-label dispatch counts and wall time, peak
  // queue depth).
  bool profile = false;
  // Causal tracing (src/trace): when non-empty, every packet-lifecycle and
  // HBP/pushback control-plane span event is recorded and exported to this
  // path after the run (".csv" => long-format CSV, anything else => Chrome
  // trace-event / Perfetto JSON).
  std::string trace_path;
};

// The part of a run's result every scenario shares.
struct RunRecord {
  // Trace-digest fingerprint and event count of the run (see
  // sim/trace_digest.hpp).  Same config + same seed must reproduce both
  // bit-identically; the golden regression tests pin them.
  std::uint64_t trace_digest = 0;
  std::uint64_t events_executed = 0;

  // Full instrument tree of the run (scenario.* metrics plus subsystem
  // snapshots); outlives the simulator.  Feed to render_run_report().
  std::shared_ptr<const telemetry::Registry> telemetry;
  // Host-dependent measurements (wall time, RSS, profiler stats when
  // profiling was on).  Everything here is excluded from the deterministic
  // part of exported reports.
  telemetry::PerfStats perf;
};

// Totals over one or more runs (bench perf records).
struct RunTotals {
  RunTotals() = default;
  // One run's totals; implicit so a single run goes wherever totals do.
  RunTotals(const RunRecord& run)  // NOLINT(runtime/explicit)
      : events_executed(run.events_executed),
        sim_seconds(run.perf.sim_seconds),
        metrics(run.telemetry) {}

  std::uint64_t events_executed = 0;
  double sim_seconds = 0.0;
  // Instrument trees of all runs merged in seed order.
  std::shared_ptr<const telemetry::Registry> metrics;
};

// Owns the simulator, network and (optional) tracer of one run, and the
// wall clock that starts with it.  Declare it before anything that
// schedules on its simulator, so the simulator outlives them all.
class RunHarness {
 public:
  explicit RunHarness(const ObserveOptions& options);
  ~RunHarness();
  RunHarness(const RunHarness&) = delete;
  RunHarness& operator=(const RunHarness&) = delete;

  sim::Simulator& simulator() { return simulator_; }
  net::Network& network() { return network_; }

  // The common epilogue, run once the scenario has exported its own
  // subsystems' telemetry: audits the network's invariants, fills `record`
  // (digest, events, network/tracer/dispatch counters, perf with
  // `sim_seconds` as the simulated time) and writes the trace file.
  void finish(RunRecord& record, double sim_seconds);

 private:
  std::string trace_path_;
  std::chrono::steady_clock::time_point wall_start_;
  sim::Simulator simulator_;
  net::Network network_;
  std::unique_ptr<trace::Tracer> tracer_;
};

// Runs `run(config, seed)` for `runs` consecutive seeds from `base_seed`,
// on `pool` when given, and returns the results in seed order after adding
// their events, simulated time and instrument trees to `totals` in that
// order.  Every run fills its own slot and the merge is serial, so totals
// are bit-identical pooled or inline (floating-point accumulation is not
// commutative).
template <typename Config, typename Result>
std::vector<Result> replicate(Result (*run)(const Config&, std::uint64_t),
                              const Config& config, int runs,
                              std::uint64_t base_seed, util::ThreadPool* pool,
                              RunTotals& totals) {
  std::vector<Result> results(static_cast<std::size_t>(runs));
  auto one = [&](std::size_t i) {
    results[i] = run(config, base_seed + static_cast<std::uint64_t>(i));
  };
  if (pool != nullptr) {
    pool->parallel_for(results.size(), one);
  } else {
    for (std::size_t i = 0; i < results.size(); ++i) one(i);
  }
  auto merged = std::make_shared<telemetry::Registry>();
  for (const RunRecord& r : results) {
    totals.events_executed += r.events_executed;
    totals.sim_seconds += r.perf.sim_seconds;
    if (r.telemetry) merged->merge(*r.telemetry);
  }
  totals.metrics = std::move(merged);
  return results;
}

}  // namespace hbp::scenario
