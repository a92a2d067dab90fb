// Shared helpers for the figure-regeneration benches.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "scenario/string_experiment.hpp"
#include "scenario/tree_experiment.hpp"
#include "telemetry/report.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace hbp::bench {

// Machine-readable perf record shared by every bench binary: constructing
// one registers the `--json <path>` flag, and write() emits an
// "hbp-bench/1" BENCH_<name>.json record there (no-op when the flag was
// not passed).  Deterministic headline counters and merged run metrics come
// first; wall time / RSS / rates live in the trailing "perf" object (see
// telemetry/report.hpp for the layout contract).
class BenchReport {
 public:
  BenchReport(std::string name, util::Flags& flags)
      : name_(std::move(name)),
        path_(flags.get_string("json", "")),
        wall_start_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return !path_.empty(); }

  // Deterministic headline number (capture fraction, mean throughput, ...).
  void add_counter(std::string key, double value) {
    counters_.push_back({std::move(key), value});
  }

  // Accumulates one run or a replicated sweep: event totals, simulated
  // time, and the merged instrument tree.
  void add(const scenario::RunTotals& totals) {
    add_events(totals.events_executed, totals.sim_seconds);
    if (totals.metrics) metrics_.merge(*totals.metrics);
  }
  void add_events(std::uint64_t events, double sim_seconds) {
    events_ += events;
    sim_seconds_ += sim_seconds;
  }

  void write() const {
    if (path_.empty()) return;
    telemetry::PerfStats perf;
    perf.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start_)
                            .count();
    perf.events_executed = events_;
    perf.peak_rss_bytes = telemetry::peak_rss_bytes();
    perf.sim_seconds = sim_seconds_;
    telemetry::write_bench_record(path_, name_, counters_,
                                  metrics_.size() > 0 ? &metrics_ : nullptr,
                                  perf);
    std::printf("\nWrote %s\n", path_.c_str());
  }

 private:
  std::string name_;
  std::string path_;
  std::chrono::steady_clock::time_point wall_start_;
  std::vector<telemetry::BenchCounter> counters_;
  telemetry::Registry metrics_;
  std::uint64_t events_ = 0;
  double sim_seconds_ = 0.0;
};

// The Fig. 9 simulation defaults (see DESIGN.md for the OCR parameter
// reconstruction).  Bench binaries start from these and apply flags.
inline scenario::TreeExperimentConfig default_tree_config() {
  scenario::TreeExperimentConfig config;
  config.tree.leaf_count = 300;
  config.n_clients = 75;
  config.n_attackers = 25;
  config.attacker_rate_bps = 1.0e6;
  return config;
}

// Applies the shared sweep flags: --leaves, --seeds, --seed.
struct CommonFlags {
  int seeds = 3;
  std::uint64_t base_seed = 1;
};

inline CommonFlags apply_common_flags(util::Flags& flags,
                                      scenario::TreeExperimentConfig& config) {
  config.tree.leaf_count =
      static_cast<std::size_t>(flags.get_int("leaves",
                                             static_cast<std::int64_t>(
                                                 config.tree.leaf_count)));
  CommonFlags out;
  out.seeds = static_cast<int>(flags.get_int("seeds", out.seeds));
  out.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  return out;
}

}  // namespace hbp::bench
