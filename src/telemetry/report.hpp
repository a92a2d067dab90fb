// Machine-readable exporters: JSON run reports, BENCH_*.json perf records,
// and CSV time-series dumps.
//
// Layout contract shared by both schemas ("hbp-run-report/1" and
// "hbp-bench/1"): every host-dependent quantity (wall times, RSS, rates
// derived from wall time, the SHA-256 kernel CPUID picked) lives
// exclusively inside the single top-level "perf" object, which is always
// the LAST key of the document.  Everything before "perf" is a pure
// function of (config, seed), so consumers — and the determinism tests —
// can truncate at `"perf":` and compare the rest byte-for-byte across runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/profiler.hpp"
#include "telemetry/registry.hpp"

namespace hbp::telemetry {

// Identifies a run: experiment name, seed, flattened config key/values,
// and the audit anchors (trace digest, event count, simulated horizon).
struct RunManifest {
  std::string name;
  std::uint64_t seed = 0;
  std::uint64_t trace_digest = 0;
  std::uint64_t events_executed = 0;
  double sim_seconds = 0.0;

  struct Field {
    std::string key;
    std::string rendered;  // pre-rendered JSON value
    bool quoted = false;
  };
  std::vector<Field> config;

  void set(std::string key, std::string value);
  void set_int(std::string key, std::int64_t value);
  void set_double(std::string key, double value);
  void set_bool(std::string key, bool value);
};

// Host-dependent measurements of one run or one bench invocation.
struct PerfStats {
  double wall_seconds = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t peak_rss_bytes = 0;
  double sim_seconds = 0.0;  // 0 => omit wall-per-sim-second
  std::size_t peak_queue_depth = 0;
  std::vector<LoopProfiler::TypeStats> event_types;  // empty => not profiled

  double events_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(events_executed) / wall_seconds
               : 0.0;
  }
};

// Current process peak resident set size, in bytes (0 if unavailable).
std::uint64_t peak_rss_bytes();

// --- run report ("hbp-run-report/1") ---

// `perf == nullptr` omits the host-dependent "perf" object, leaving a
// report that is byte-identical across same-seed runs.
std::string render_run_report(const RunManifest& manifest,
                              const Registry* registry, const PerfStats* perf);

// Writes the report to `path`; aborts if the file cannot be written.
void write_run_report(const std::string& path, const RunManifest& manifest,
                      const Registry* registry, const PerfStats* perf);

// --- bench perf record ("hbp-bench/1") ---

// Flat deterministic headline numbers of a bench invocation.
struct BenchCounter {
  std::string key;
  double value = 0.0;
};

std::string render_bench_record(const std::string& name,
                                const std::vector<BenchCounter>& counters,
                                const Registry* metrics, const PerfStats& perf);

void write_bench_record(const std::string& path, const std::string& name,
                        const std::vector<BenchCounter>& counters,
                        const Registry* metrics, const PerfStats& perf);

// --- CSV time-series dump ---

// Long format: "series,bin_start_seconds,value" for every TimeSeries
// instrument in the registry, series in name order.
std::string render_timeseries_csv(const Registry& registry);
void write_timeseries_csv(const std::string& path, const Registry& registry);

// Writes `content` to `path`, aborting on failure (exporters share it).
void write_file_or_die(const std::string& path, const std::string& content);

}  // namespace hbp::telemetry
