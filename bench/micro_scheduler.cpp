// Micro-benchmarks (google-benchmark) of the pending-event set: push/pop
// throughput with and without packet payloads, cancellation churn, and a
// classic hold-model steady state.  `--json <path>` additionally writes an
// hbp-bench/1 record with deterministic packet-event throughput counters
// for tools/bench_diff.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/report.hpp"
#include "util/rng.hpp"

namespace {

// Fill-then-drain of n empty events.
void BM_PushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hbp::util::Rng rng(1);
  for (auto _ : state) {
    hbp::sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(hbp::sim::SimTime(static_cast<std::int64_t>(rng.below(1'000'000))),
             [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PushPop)
    ->Arg(1024)
    ->Arg(16384)
    ->ArgName("n");

// The packet path's event shape: each event owns a moved-in sim::Packet.
// This is the allocation-sensitive case — the closure must stay inside the
// event's inline buffer and the queue slot must recycle.
void BM_PushPopPacket(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hbp::util::Rng rng(2);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    hbp::sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      hbp::sim::Packet p;
      p.uid = i;
      p.size_bytes = 1000;
      q.push(hbp::sim::SimTime(static_cast<std::int64_t>(rng.below(1'000'000))),
             [&sink, p = std::move(p)] { sink += p.uid; },
             "bench.packet");
    }
    while (!q.empty()) q.pop().fn();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PushPopPacket)
    ->Arg(1024)
    ->Arg(16384)
    ->ArgName("n");

// Retransmit-timer shape: every scheduled event is cancelled before firing
// (TCP RTO, honeypot window guards).  Exercises slot recycling plus stale-
// record compaction in the ordering structure.
void BM_PushCancel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hbp::util::Rng rng(3);
  hbp::sim::EventQueue q;
  std::vector<hbp::sim::EventId> ids;
  ids.reserve(n);
  for (auto _ : state) {
    ids.clear();
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(q.push(
          hbp::sim::SimTime(static_cast<std::int64_t>(rng.below(1'000'000))),
          [] {}));
    }
    for (const auto id : ids) benchmark::DoNotOptimize(q.cancel(id));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PushCancel)
    ->Arg(4096)
    ->ArgName("n");

// Classic hold model: constant population, each pop schedules one push a
// random increment ahead.  This is the scheduler's steady-state regime in a
// long simulation run.
void BM_Hold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hbp::util::Rng rng(4);
  hbp::sim::EventQueue q;
  for (std::size_t i = 0; i < n; ++i) {
    q.push(hbp::sim::SimTime(static_cast<std::int64_t>(rng.below(1'000'000))),
           [] {});
  }
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      const auto ev = q.pop();
      q.push(ev.at + hbp::sim::SimTime(
                         static_cast<std::int64_t>(1 + rng.below(2'000'000))),
             [] {});
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_Hold)
    ->Arg(1024)
    ->Arg(16384)
    ->ArgName("n");

// Deterministic workload for the --json perf record: a fixed number of
// packet-carrying events pushed and drained through the queue, timed with
// steady_clock.  The counter (events) is a pure function of the workload;
// the rate is what tools/bench_diff tracks across commits.
void write_json_record(const std::string& path) {
  constexpr std::size_t kEvents = 400'000;
  const auto wall_start = std::chrono::steady_clock::now();
  hbp::util::Rng rng(7);
  std::uint64_t sink = 0;
  hbp::sim::EventQueue q;
  // Hold model at population 4096 with packet payloads.
  constexpr std::size_t kPopulation = 4096;
  for (std::size_t i = 0; i < kPopulation; ++i) {
    hbp::sim::Packet p;
    p.uid = i;
    q.push(hbp::sim::SimTime(static_cast<std::int64_t>(rng.below(1'000'000))),
           [&sink, p] { sink += p.uid; });
  }
  for (std::size_t i = 0; i < kEvents; ++i) {
    auto ev = q.pop();
    ev.fn();
    hbp::sim::Packet p;
    p.uid = i;
    q.push(ev.at + hbp::sim::SimTime(
                       static_cast<std::int64_t>(1 + rng.below(2'000'000))),
           [&sink, p] { sink += p.uid; });
  }
  while (!q.empty()) q.pop().fn();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  benchmark::DoNotOptimize(sink);
  // Key names keep the "_heap" suffix so records pair with older ones.
  const std::vector<hbp::telemetry::BenchCounter> counters = {
      {"packet_events_heap", static_cast<double>(kEvents + kPopulation)},
      {"packet_events_per_sec_heap",
       static_cast<double>(kEvents + kPopulation) / seconds},
  };

  hbp::telemetry::PerfStats perf;
  perf.wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  perf.events_executed = kEvents;
  perf.peak_rss_bytes = hbp::telemetry::peak_rss_bytes();
  perf.sim_seconds = seconds;
  hbp::telemetry::write_bench_record(path, "micro_scheduler", counters,
                                     nullptr, perf);
  std::printf("\nWrote %s\n", path.c_str());
}

}  // namespace

// Hand-rolled main (same idiom as micro_substrate): peel `--json` off argv
// before google-benchmark rejects it as unknown.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_json_record(json_path);
  return 0;
}
