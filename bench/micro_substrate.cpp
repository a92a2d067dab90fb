// Micro-benchmarks (google-benchmark) of the substrate hot paths: the event
// queue (push/pop with and without packet payloads, cancellation churn, a
// hold-model steady state), SHA-256 / HMAC / hash-chain generation, router
// forwarding, route computation on the Fig. 8 tree, and the max-min
// allocator.  These bound the simulator's throughput (events/s) and set-up.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "honeypot/hash_chain.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "net/router.hpp"
#include "pushback/maxmin.hpp"
#include "sim/event_queue.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/report.hpp"
#include "topo/tree.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
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
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

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
// (TCP RTO, honeypot window guards).  Exercises slot recycling plus the
// unlink of each record from its bucket list.
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

// Hold model at the fig11_flood depth (~730 pending) with its link-like
// increments: 70% 10 ms deliveries, 20% ~80 us transmissions and 10% ~16 ms
// CBR ticks, so many pending times share their high bits.
void BM_HoldLinkMix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hbp::util::Rng rng(5);
  const auto increment = [&rng] {
    const auto kind = rng.below(10);
    if (kind < 7) return std::int64_t{10'000'000};
    if (kind < 9) return 80'000 + static_cast<std::int64_t>(rng.below(3)) * 8;
    return 16'000'000 + static_cast<std::int64_t>(rng.below(2'000));
  };
  hbp::sim::EventQueue q;
  for (std::size_t i = 0; i < n; ++i) {
    q.push(hbp::sim::SimTime(static_cast<std::int64_t>(rng.below(16'000'000))),
           [] {});
  }
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      const auto ev = q.pop();
      q.push(ev.at + hbp::sim::SimTime(increment()), [] {});
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_HoldLinkMix)->Arg(768)->ArgName("n");

void BM_SimulatorEventChain(benchmark::State& state) {
  for (auto _ : state) {
    hbp::sim::Simulator simulator;
    std::int64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) {
        simulator.after(hbp::sim::SimTime::micros(10), tick);
      }
    };
    simulator.after(hbp::sim::SimTime::micros(10), tick);
    simulator.run_all();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEventChain);

void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbp::util::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSign(benchmark::State& state) {
  const auto key = hbp::util::Sha256::hash("key");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hbp::util::hmac_sha256(key, "hbp-request;dst=42;epoch=7;"));
  }
}
BENCHMARK(BM_HmacSign);

void BM_HashChainGeneration(benchmark::State& state) {
  const auto tail = hbp::util::Sha256::hash("tail");
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    hbp::honeypot::HashChain chain(tail, n);
    benchmark::DoNotOptimize(chain.key(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HashChainGeneration)->Arg(1024)->Arg(8192);

void BM_RouterForwarding(benchmark::State& state) {
  hbp::sim::Simulator simulator;
  hbp::net::Network network(simulator);
  auto& a = network.add_node<hbp::net::Host>("a");
  auto& r = network.add_node<hbp::net::Router>("r");
  auto& b = network.add_node<hbp::net::Host>("b");
  hbp::net::LinkParams link;
  link.capacity_bps = 1e12;  // serialization negligible
  link.delay = hbp::sim::SimTime::micros(1);
  link.queue_bytes = 1'000'000'000;
  network.connect(a.id(), r.id(), link);
  network.connect(r.id(), b.id(), link);
  a.set_address(network.assign_address(a.id()));
  b.set_address(network.assign_address(b.id()));
  network.compute_routes();

  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      hbp::sim::Packet p;
      p.dst = b.address();
      p.size_bytes = 1000;
      a.send(std::move(p));
    }
    simulator.run_until(simulator.now() + hbp::sim::SimTime::seconds(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_RouterForwarding);

// Route computation alone on the paper workloads' 300-leaf tree, built once.
void BM_ComputeRoutes(benchmark::State& state) {
  hbp::sim::Simulator simulator;
  hbp::net::Network network(simulator);
  hbp::util::Rng rng(1);
  hbp::topo::build_tree(network, rng, hbp::bench::default_tree_config().tree);
  for (auto _ : state) {
    network.compute_routes();
    benchmark::DoNotOptimize(network.route_port(0, 1));
    benchmark::ClobberMemory();
  }
  state.counters["nodes"] = static_cast<double>(network.node_count());
}
BENCHMARK(BM_ComputeRoutes)->Unit(benchmark::kMillisecond);

void BM_MaxMinAllocate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hbp::util::Rng rng(2);
  std::vector<double> demands(n);
  for (auto& d : demands) d = rng.uniform(0.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hbp::pushback::maxmin_allocate(demands, 0.3 * 10.0 * n));
  }
}
BENCHMARK(BM_MaxMinAllocate)->Arg(8)->Arg(64)->Arg(512);

// The default display reporter (it honours --benchmark_format), also keeping
// each google-benchmark result for the --json record: items/s where the
// benchmark counts items, otherwise real nanoseconds per iteration.  With
// --benchmark_repetitions only the aggregates (mean, median, ...) are kept,
// so every key is unique.
class RecordingReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type != Run::RT_Aggregate && run.repetitions > 1) continue;
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        results.push_back({run.benchmark_name() + ".items_per_s",
                           items->second.value});
      } else {
        results.push_back(
            {run.benchmark_name() + ".ns_per_iter",
             run.GetAdjustedRealTime() * 1e9 /
                 benchmark::GetTimeUnitMultiplier(run.time_unit)});
      }
    }
    display_->ReportRuns(runs);
  }

  void Finalize() override { display_->Finalize(); }

  std::vector<hbp::telemetry::BenchCounter> results;

 private:
  // Owned by the library.
  benchmark::BenchmarkReporter* display_ =
      benchmark::CreateDefaultDisplayReporter();
};

// The --json perf record: every google-benchmark result of this invocation,
// then a fixed event chain timed with steady_clock.  The chain's event count
// is a pure function of the workload; the rates are host-bound.
void write_json_record(const std::string& path,
                       std::vector<hbp::telemetry::BenchCounter> counters) {
  const auto wall_start = std::chrono::steady_clock::now();
  hbp::sim::Simulator simulator;
  std::int64_t count = 0;
  std::function<void()> tick = [&] {
    if (++count < 200000) {
      simulator.after(hbp::sim::SimTime::micros(10), tick);
    }
  };
  simulator.after(hbp::sim::SimTime::micros(10), tick);
  simulator.run_all();

  hbp::telemetry::PerfStats perf;
  perf.wall_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  perf.events_executed = simulator.events_executed();
  perf.peak_rss_bytes = hbp::telemetry::peak_rss_bytes();
  perf.sim_seconds = simulator.now().to_seconds();

  counters.push_back(
      {"chain_events", static_cast<double>(simulator.events_executed())});
  hbp::telemetry::write_bench_record(path, "micro_substrate", counters,
                                     nullptr, perf);
  std::printf("\nWrote %s\n", path.c_str());
}

}  // namespace

// Hand-rolled main instead of BENCHMARK_MAIN(): google-benchmark rejects
// unknown flags, so `--json <path>` / `--json=<path>` is peeled off argv
// before benchmark::Initialize sees it.
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
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    write_json_record(json_path, std::move(reporter.results));
  }
  return 0;
}
