// Paper-workload benchmark driver (see README.md in this directory).
//
// One process, one thread.  Each workload is a fixed amount of simulated
// work run through the public scenario entry points; every scenario run is
// one operation and is checked against the stored reference.  With
// --trace 0 the driver prints the end-to-end host metrics of unprofiled
// runs; with --trace 1 it prints the per-layer metrics of a profiled pass.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   paperbench --workload fig8_hbp --seed 1 --seconds 30 --trace 0
//              --reference reference.txt
//   paperbench --record reference.txt      (rewrites the reference)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "honeypot/hash_chain.hpp"
#include "net/network.hpp"
#include "scenario/string_experiment.hpp"
#include "scenario/tree_experiment.hpp"
#include "telemetry/report.hpp"
#include "topo/string_topo.hpp"
#include "topo/tree.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using namespace hbp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads

// Fig. 6 replications per point (the paper's 10).
constexpr int kFig6Runs = 10;

struct Workload {
  std::string name;
  // A tree workload runs `tree` once per result; a string workload runs
  // every entry of `points` kFig6Runs times.
  std::optional<scenario::TreeExperimentConfig> tree;
  std::vector<scenario::StringExperimentConfig> points;
  // Full results of an end-to-end run: one per slot of the seed's pool,
  // sized so that a run fits --seconds 30 in a slow host phase.
  std::uint64_t results;
  // Set-up-only results timed just before each full result.
  int setups_per_result;
};

// Seeds.  Scenario seeds come in two pools of slots: the development pool
// (--seed 0..15, slots 0..) and the held-out pool (--seed 16..31, slots
// 16..); larger seeds wrap.  A workload uses the first `results` slots of
// a pool, and result j of a run uses slot (seed + j) mod `results` of the
// seed's pool, so every run times the same simulated work in an order
// that depends on the seed.  The simulated results of every slot are
// stored in the reference file.

constexpr std::uint64_t kPoolStride = 16;

std::uint64_t slot_of(const Workload& w, std::uint64_t seed, std::size_t j) {
  const std::uint64_t pool = (seed / kPoolStride) % 2;
  return pool * kPoolStride + (seed + j) % w.results;
}

std::vector<std::uint64_t> all_slots(const Workload& w) {
  std::vector<std::uint64_t> slots;
  for (const std::uint64_t pool : {0, 1}) {
    for (std::uint64_t s = 0; s < w.results; ++s) {
      slots.push_back(pool * kPoolStride + s);
    }
  }
  return slots;
}

scenario::TreeExperimentConfig fig8_tree(scenario::Scheme scheme) {
  scenario::TreeExperimentConfig config = bench::default_tree_config();
  config.scheme = scheme;
  return config;
}

// Fig. 6: the three basic-scheme sweeps (p, m, h) on the string topology,
// tau = 0.3 s, 0.1 Mb/s attacker.
std::vector<scenario::StringExperimentConfig> fig6_points() {
  auto base = [](double m, double p, int h) {
    scenario::StringExperimentConfig config;
    config.m = m;
    config.p = p;
    config.h = h;
    config.tau = 0.3;
    config.attacker_rate_bps = 0.1e6;
    config.progressive = false;
    return config;
  };
  std::vector<scenario::StringExperimentConfig> points;
  for (const double p : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    points.push_back(base(10.0, p, 10));
  }
  for (const double m : {6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 20.0}) {
    points.push_back(base(m, 0.3, 10));
  }
  for (const int h : {2, 5, 10, 15, 20}) points.push_back(base(10.0, 0.3, h));
  return points;
}

std::vector<Workload> all_workloads() {
  using scenario::Scheme;
  auto flood = fig8_tree(Scheme::kNoDefense);
  flood.n_attackers = 100;
  flood.attacker_rate_bps = 0.5e6;
  return {
      {"fig8_hbp", fig8_tree(Scheme::kHbp), {}, 16, 5},
      {"fig8_pushback", fig8_tree(Scheme::kPushback), {}, 12, 5},
      {"fig11_flood", flood, {}, 6, 5},
      {"fig6_sweep", std::nullopt, fig6_points(), 8, 1},
  };
}

// ---------------------------------------------------------------------------
// One scenario run: its behaviour record and its host/layer measurements.

// Field order of the reference records.
constexpr const char* kTreeFields =
    "captured false_captures throughput control_messages activations "
    "pushback_requests pushback_limited_drops";
constexpr const char* kStringFields =
    "captured capture_seconds control_messages reports";
constexpr const char* kNetFields =
    "transmitted delivered dropped_ttl dropped_filter queue_drops";

struct RunOutcome {
  // Simulated results compared with the reference: space-separated values
  // in k{Tree,String}Fields then kNetFields order.
  std::string behaviour;
  // Exact work counts (per-layer metrics).
  std::map<std::string, double> counts;
  double wall_s = 0.0;
  std::size_t peak_pending = 0;
  std::vector<telemetry::LoopProfiler::TypeStats> event_types;
};

std::uint64_t count(const telemetry::Registry& r, const char* name) {
  const telemetry::Counter* c = r.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

// Appends the network counters to the behaviour record and fills the counts
// and profile fields shared by both scenario kinds.
void finish_outcome(const telemetry::Registry& r, std::uint64_t events,
                    const telemetry::PerfStats& perf, RunOutcome& out) {
  for (const char* name :
       {"net.packets.transmitted", "net.packets.delivered",
        "net.packets.dropped_ttl", "net.packets.dropped_filter",
        "net.queue.drops"}) {
    out.behaviour += ' ' + std::to_string(count(r, name));
  }
  const std::pair<const char*, const char*> counted[] = {
      {"net.hops", "net.packets.transmitted"},
      {"net.delivered", "net.packets.delivered"},
      {"net.queue_drops", "net.queue.drops"},
      {"net.filter_drops", "net.packets.dropped_filter"},
      {"net.control.messages", "net.control.total"},
      {"core.activations", "core.defense.activations"},
      {"core.captures", "core.defense.captures"},
      {"pushback.requests", "pushback.requests_sent"},
      {"pushback.limited_drops", "pushback.limited_drops"},
  };
  for (const auto& [key, name] : counted) {
    out.counts[key] = static_cast<double>(count(r, name));
  }
  out.counts["sim.events"] = static_cast<double>(events);
  out.peak_pending = perf.peak_queue_depth;
  out.event_types = perf.event_types;
}

// One scenario run of a workload result.
struct Job {
  std::size_t point;   // index into Workload::points (string workloads)
  std::uint64_t seed;  // scenario seed
  std::size_t index;   // position within the result (reference key)
};

RunOutcome run_job(const Workload& w, const Job& job, bool zero_horizon,
                   bool profile) {
  RunOutcome out;
  if (w.tree) {
    scenario::TreeExperimentConfig config = *w.tree;
    if (zero_horizon) config.sim_seconds = 0.0;
    config.profile = profile;
    const auto t0 = Clock::now();
    const scenario::TreeResult r = scenario::run_tree_experiment(config, job.seed);
    out.wall_s = seconds_since(t0);
    out.behaviour = std::to_string(r.captured) + ' ' +
                    std::to_string(r.false_captures) + ' ' +
                    fmt(r.mean_client_throughput) + ' ' +
                    std::to_string(r.control_messages) + ' ' +
                    std::to_string(r.hbp_activations) + ' ' +
                    std::to_string(r.pushback_requests) + ' ' +
                    std::to_string(r.pushback_limited_drops);
    finish_outcome(*r.telemetry, r.events_executed, r.perf, out);
    return out;
  }
  scenario::StringExperimentConfig config = w.points[job.point];
  if (zero_horizon) config.horizon_seconds = 0.0;
  config.profile = profile;
  const auto t0 = Clock::now();
  const scenario::StringResult r =
      scenario::run_string_experiment(config, job.seed);
  out.wall_s = seconds_since(t0);
  out.behaviour = std::to_string(r.captured ? 1 : 0) + ' ' +
                  fmt(r.capture_seconds) + ' ' +
                  std::to_string(r.control_messages) + ' ' +
                  std::to_string(r.reports);
  finish_outcome(*r.telemetry, r.events_executed, r.perf, out);
  return out;
}

std::vector<Job> jobs_for(const Workload& w, std::uint64_t slot) {
  if (w.tree) return {{0, slot + 1, 0}};
  std::vector<Job> jobs;
  for (std::size_t p = 0; p < w.points.size(); ++p) {
    for (std::uint64_t i = 0; i < kFig6Runs; ++i) {
      jobs.push_back({p, slot * kFig6Runs + i + 1, jobs.size()});
    }
  }
  return jobs;
}

std::string reference_key(const std::string& workload, std::uint64_t slot,
                          std::size_t index) {
  return workload + ' ' + std::to_string(slot) + ' ' + std::to_string(index);
}

// ---------------------------------------------------------------------------
// One workload result: all of its scenario runs, behaviour-checked.

struct ResultRun {
  double wall_s = 0.0;
  std::vector<double> run_ms;  // per scenario run
  std::map<std::string, double> counts;
  std::size_t peak_pending = 0;
  // label -> (dispatches, handler wall ns), profiled results only
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> labels;
};

class Runner {
 public:
  Runner(const Workload& w, std::map<std::string, std::string> reference)
      : workload_(w), reference_(std::move(reference)) {}

  const Workload& workload() const { return workload_; }

  // Runs the workload once on the scenario seeds of `slot`.  Full runs are
  // behaviour-checked operations; zero-horizon (set-up only) runs are not.
  ResultRun run(std::uint64_t slot, bool zero_horizon, bool profile) {
    ResultRun result;
    const auto t0 = Clock::now();
    for (const Job& job : jobs_for(workload_, slot)) {
      const RunOutcome o = run_job(workload_, job, zero_horizon, profile);
      result.run_ms.push_back(o.wall_s * 1e3);
      if (!zero_horizon) {
        check(reference_key(workload_.name, slot, job.index), o.behaviour);
      }
      for (const auto& [k, v] : o.counts) result.counts[k] += v;
      result.peak_pending = std::max(result.peak_pending, o.peak_pending);
      for (const auto& ts : o.event_types) {
        auto& totals = result.labels[ts.label];
        totals.first += ts.count;
        totals.second += ts.wall_ns;
      }
    }
    result.wall_s = seconds_since(t0);
    return result;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  void check(const std::string& key, const std::string& behaviour) {
    ++attempted_;
    const auto it = reference_.find(key);
    if (it != reference_.end() && it->second == behaviour) return;
    ++failed_;
    if (failed_ <= 5) {
      std::fprintf(stderr,
                   "behaviour mismatch [%s] (%s %s)\n  got:      %s\n"
                   "  expected: %s\n",
                   key.c_str(), workload_.tree ? kTreeFields : kStringFields,
                   kNetFields, behaviour.c_str(),
                   it == reference_.end() ? "(missing)" : it->second.c_str());
    }
  }

  const Workload& workload_;
  const std::map<std::string, std::string> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Set-up layers timed directly through their public functions.

struct SetupLayers {
  double topo_build_ms = 0.0;
  double net_routes_ms = 0.0;
  double honeypot_chain_ms = 0.0;
};

// Per-call cost with the workload's own parameters, averaged over its
// distinct configurations.
SetupLayers time_setup_layers(const Workload& w, std::uint64_t slot) {
  SetupLayers s;
  auto ms_since = [](Clock::time_point t0) { return seconds_since(t0) * 1e3; };
  util::Digest tail{};
  util::Rng tail_rng(util::derive_seed(slot + 1, 3));
  for (auto& b : tail) b = static_cast<std::uint8_t>(tail_rng.below(256));
  if (w.tree) {
    sim::Simulator simulator;
    net::Network network(simulator);
    util::Rng rng(util::derive_seed(slot + 1, 1));
    auto t0 = Clock::now();
    topo::build_tree(network, rng, w.tree->tree);
    s.topo_build_ms = ms_since(t0);
    t0 = Clock::now();
    network.compute_routes();
    s.net_routes_ms = ms_since(t0);
    t0 = Clock::now();
    const honeypot::HashChain chain(tail, 4096);
    s.honeypot_chain_ms = ms_since(t0);
    return s;
  }
  for (const auto& point : w.points) {
    sim::Simulator simulator;
    net::Network network(simulator);
    topo::StringParams sp;
    sp.hops = point.h;
    auto t0 = Clock::now();
    topo::build_string(network, sp);
    s.topo_build_ms += ms_since(t0);
    t0 = Clock::now();
    network.compute_routes();
    s.net_routes_ms += ms_since(t0);
    t0 = Clock::now();
    const honeypot::HashChain chain(tail, 8192);
    s.honeypot_chain_ms += ms_since(t0);
  }
  const double n = static_cast<double>(w.points.size());
  s.topo_build_ms /= n;
  s.net_routes_ms /= n;
  s.honeypot_chain_ms /= n;
  return s;
}

// ---------------------------------------------------------------------------
// Measurement passes

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void log_samples(const char* what, const std::vector<double>& v) {
  std::fprintf(stderr, "%s (%zu):", what, v.size());
  for (const double x : v) std::fprintf(stderr, " %.4f", x);
  std::fprintf(stderr, "\n");
}

// End-to-end host metrics from unprofiled runs: one full result per slot
// of the seed's pool, each just after `setups_per_result` set-up-only
// (zero-horizon) results of the same slot, so that set-up and full
// results sample the same host phases.  `seconds` is only a safety cap;
// a run it cuts short says so.  Timings are medians over the results; the
// hop rate is total hops over total host seconds of the full results.
std::vector<Metric> measure_end_to_end(Runner& runner, std::uint64_t seed,
                                       double seconds) {
  const Workload& w = runner.workload();
  const auto t0 = Clock::now();
  std::vector<double> setups, walls, run_ms;
  double hops = 0.0;
  for (std::size_t j = 0; j < w.results; ++j) {
    const double round_s =
        walls.empty() ? 0.0
                      : walls.back() + setups.back() * w.setups_per_result;
    if (j >= 3 && seconds_since(t0) + round_s > seconds) {
      std::printf("cut short: %zu of %llu results fit --seconds %g\n", j,
                  static_cast<unsigned long long>(w.results), seconds);
      break;
    }
    const std::uint64_t slot = slot_of(w, seed, j);
    for (int i = 0; i < w.setups_per_result; ++i) {
      setups.push_back(runner.run(slot, true, false).wall_s);
    }
    const ResultRun r = runner.run(slot, false, false);
    walls.push_back(r.wall_s);
    hops += r.counts.at("net.hops");
    run_ms.insert(run_ms.end(), r.run_ms.begin(), r.run_ms.end());
  }
  log_samples("wall_s", walls);
  std::fprintf(stderr,
               "setup_s median %.5f over %zu; per scenario run: p50 %.3f ms, "
               "p90 %.3f ms over %zu runs\n",
               median(setups), setups.size(), quantile(run_ms, 0.5),
               quantile(run_ms, 0.9), run_ms.size());
  return {
      {"wall_s", median(walls), "s"},
      {"setup_s", median(setups), "s"},
      {"hops_per_s",
       hops / std::accumulate(walls.begin(), walls.end(), 0.0), "1/s"},
      {"peak_rss_mb",
       static_cast<double>(telemetry::peak_rss_bytes()) / (1024.0 * 1024.0),
       "MB"},
  };
}

// Dispatch count and handler wall ns of every label starting with `prefix`.
std::pair<double, double> label_totals(const ResultRun& r,
                                       const std::string& prefix) {
  double n = 0.0;
  double ns = 0.0;
  for (const auto& [label, cw] : r.labels) {
    if (label.rfind(prefix, 0) != 0) continue;
    n += static_cast<double>(cw.first);
    ns += static_cast<double>(cw.second);
  }
  return {n, ns};
}

// Per-layer metrics: set-up layers timed through their public functions,
// run-phase layers from the loop profiler (config.profile) rolled up by
// label prefix, and the exact work counts of the first result.  Each
// profiled result is paired with an unprofiled one for the profiler's
// overhead ratio.
std::vector<Metric> measure_layers(Runner& runner, std::uint64_t seed,
                                   double seconds) {
  const Workload& w = runner.workload();
  std::vector<double> build_ms, routes_ms, chain_ms;
  for (int i = 0; i < 5; ++i) {
    const SetupLayers s = time_setup_layers(w, slot_of(w, seed, 0));
    build_ms.push_back(s.topo_build_ms);
    routes_ms.push_back(s.net_routes_ms);
    chain_ms.push_back(s.honeypot_chain_ms);
  }

  std::map<std::string, std::vector<double>> samples;
  std::vector<double> profiled_walls, plain_walls;
  ResultRun first;
  const auto t0 = Clock::now();
  double round_s = 0.0;
  for (std::size_t j = 0;
       j < w.results && (j < 2 || seconds_since(t0) + round_s < seconds);
       ++j) {
    const std::uint64_t slot = slot_of(w, seed, j);
    const auto r0 = Clock::now();
    const ResultRun setup = runner.run(slot, true, true);
    const ResultRun r = runner.run(slot, false, true);
    plain_walls.push_back(runner.run(slot, false, false).wall_s);
    profiled_walls.push_back(r.wall_s);
    if (j == 0) first = r;
    round_s = seconds_since(r0);

    // Run phase = full result minus its set-up; what the labelled handlers
    // did not spend of it is the event loop's own cost.
    const double run_ns = (r.wall_s - setup.wall_s) * 1e9;
    samples["sim.loop"].push_back((run_ns - label_totals(r, "").second) /
                                  r.counts.at("sim.events"));
    for (const char* label : {"net.link.deliver", "net.link.tx", "traffic."}) {
      const auto [n, ns] = label_totals(r, label);
      samples[label].push_back(n > 0 ? ns / n : 0.0);
    }
    for (const char* layer :
         {"core.", "honeypot.", "net.control.", "pushback."}) {
      samples[layer].push_back(label_totals(r, layer).second / 1e6);
    }
  }
  log_samples("profiled wall_s", profiled_walls);
  log_samples("unprofiled wall_s", plain_walls);

  const auto& c = first.counts;
  return {
      {"topo.build_ms", median(build_ms), "ms"},
      {"net.routes_ms", median(routes_ms), "ms"},
      {"honeypot.chain_ms", median(chain_ms), "ms"},
      {"sim.loop_ns_per_event", median(samples["sim.loop"]), "ns"},
      {"sim.peak_pending", static_cast<double>(first.peak_pending), "count"},
      {"net.link.deliver_ns", median(samples["net.link.deliver"]), "ns"},
      {"net.link.tx_ns", median(samples["net.link.tx"]), "ns"},
      {"traffic.tick_ns", median(samples["traffic."]), "ns"},
      {"core.handlers_ms", median(samples["core."]), "ms"},
      {"honeypot.pool_ms", median(samples["honeypot."]), "ms"},
      {"net.control.deliver_ms", median(samples["net.control."]), "ms"},
      {"pushback.timer_ms", median(samples["pushback."]), "ms"},
      {"trace.overhead_ratio", median(profiled_walls) / median(plain_walls),
       "ratio"},
      {"sim.events", c.at("sim.events"), "count"},
      {"net.hops", c.at("net.hops"), "count"},
      {"net.delivered", c.at("net.delivered"), "count"},
      {"net.queue_drops", c.at("net.queue_drops"), "count"},
      {"net.filter_drops", c.at("net.filter_drops"), "count"},
      {"net.delivered_per_hop", c.at("net.delivered") / c.at("net.hops"),
       "ratio"},
      {"net.control.messages", c.at("net.control.messages"), "count"},
      {"core.activations", c.at("core.activations"), "count"},
      {"core.captures", c.at("core.captures"), "count"},
      {"pushback.requests", c.at("pushback.requests"), "count"},
      {"pushback.limited_drops", c.at("pushback.limited_drops"), "count"},
  };
}

// ---------------------------------------------------------------------------
// Output and reference file

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            fmt(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Reads the records of one workload: "<workload> <slot> <index> <values>".
std::optional<std::map<std::string, std::string>> load_reference(
    const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::map<std::string, std::string> ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(workload + ' ', 0) != 0) continue;
    std::size_t pos = workload.size();
    pos = line.find(' ', pos + 1);
    if (pos != std::string::npos) pos = line.find(' ', pos + 1);
    if (pos == std::string::npos) continue;
    ref[line.substr(0, pos)] = line.substr(pos + 1);
  }
  return ref;
}

int record_reference(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  out << "# Simulated results of every benchmark scenario run, one line each:\n"
         "#   <workload> <seed slot> <run index> <values>\n"
         "# Tree values: " << kTreeFields << ' ' << kNetFields << "\n"
         "# String values: " << kStringFields << ' ' << kNetFields << "\n"
         "# Written by `python3 paperbench/run.py --record`; see README.md.\n";
  for (const Workload& w : all_workloads()) {
    for (const std::uint64_t slot : all_slots(w)) {
      for (const Job& job : jobs_for(w, slot)) {
        out << reference_key(w.name, slot, job.index) << ' '
            << run_job(w, job, false, false).behaviour << '\n';
      }
    }
    std::fprintf(stderr, "recorded %s\n", w.name.c_str());
  }
  return out.good() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string record = flags.get_string("record", "");
  const std::string workload_name = flags.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 30.0);
  const bool traced = flags.get_int("trace", 0) != 0;
  const std::string reference_path = flags.get_string("reference", "");
  flags.finish();

  if (!record.empty()) return record_reference(record);

  const std::vector<Workload> workloads = all_workloads();
  const auto it = std::find_if(
      workloads.begin(), workloads.end(),
      [&](const Workload& w) { return w.name == workload_name; });
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload_name.c_str());
    return 2;
  }
  auto reference = load_reference(reference_path, it->name);
  if (!reference || reference->empty()) {
    std::fprintf(stderr, "no reference records for %s in '%s'\n",
                 it->name.c_str(), reference_path.c_str());
    return 2;
  }
  Runner runner(*it, std::move(*reference));
  const std::vector<Metric> metrics =
      traced ? measure_layers(runner, seed, seconds)
             : measure_end_to_end(runner, seed, seconds);
  print_result(runner.failed() == 0, runner.attempted(), runner.failed(),
               metrics);
  return 0;
}
