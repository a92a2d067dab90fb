// Telemetry determinism at the scenario level (the ISSUE acceptance tests):
//  - the rendered run report, minus the trailing "perf" object, is
//    byte-identical across two same-seed runs;
//  - enabling telemetry profiling does not move the trace digest.
#include <gtest/gtest.h>

#include <string>

#include "scenario/string_experiment.hpp"
#include "scenario/tree_experiment.hpp"
#include "telemetry/report.hpp"

namespace hbp::scenario {
namespace {

TreeExperimentConfig mini_tree(bool profile) {
  TreeExperimentConfig config;
  config.scheme = Scheme::kHbp;
  config.tree.leaf_count = 60;
  config.n_clients = 15;
  config.n_attackers = 5;
  config.attacker_rate_bps = 1.0e6;
  config.sim_seconds = 30.0;
  config.attack_start = 2.0;
  config.attack_end = 25.0;
  config.epoch_seconds = 5.0;
  config.profile = profile;
  return config;
}

std::string report_of(const TreeResult& r, bool with_perf) {
  telemetry::RunManifest manifest;
  manifest.name = "mini_tree";
  manifest.seed = 7;
  manifest.trace_digest = r.trace_digest;
  manifest.events_executed = r.events_executed;
  manifest.sim_seconds = 30.0;
  manifest.set_int("leaves", 60);
  return telemetry::render_run_report(manifest, r.telemetry.get(),
                                      with_perf ? &r.perf : nullptr);
}

TEST(RunReportDeterminism, SameSeedRendersByteIdenticalMinusPerf) {
  const auto config = mini_tree(/*profile=*/true);
  const TreeResult a = run_tree_experiment(config, 7);
  const TreeResult b = run_tree_experiment(config, 7);

  // Everything outside "perf" is a pure function of (config, seed).
  EXPECT_EQ(report_of(a, /*with_perf=*/false),
            report_of(b, /*with_perf=*/false));

  // With perf included, the deterministic prefix (up to `"perf":`) still
  // matches — the contract consumers rely on to diff reports across hosts.
  const std::string fa = report_of(a, /*with_perf=*/true);
  const std::string fb = report_of(b, /*with_perf=*/true);
  const auto pa = fa.find("\"perf\":");
  const auto pb = fb.find("\"perf\":");
  ASSERT_NE(pa, std::string::npos);
  EXPECT_EQ(fa.substr(0, pa), fb.substr(0, pb));
}

TEST(RunReportDeterminism, ProfilingDoesNotMoveTraceDigest) {
  const TreeResult off = run_tree_experiment(mini_tree(false), 7);
  const TreeResult on = run_tree_experiment(mini_tree(true), 7);
  EXPECT_EQ(off.trace_digest, on.trace_digest);
  EXPECT_EQ(off.events_executed, on.events_executed);
  EXPECT_EQ(off.mean_client_throughput, on.mean_client_throughput);

  // The profiled run carries per-label dispatch stats; the unprofiled one
  // doesn't pay for them.
  EXPECT_TRUE(off.perf.event_types.empty());
  ASSERT_FALSE(on.perf.event_types.empty());
  std::uint64_t dispatched = 0;
  for (const auto& s : on.perf.event_types) dispatched += s.count;
  EXPECT_EQ(dispatched, on.events_executed);
  EXPECT_GT(on.perf.peak_queue_depth, 0u);

  // sim.dispatch.<label> counters mirror the deterministic counts.
  ASSERT_TRUE(on.telemetry != nullptr);
  const auto* first = on.telemetry->find_counter(
      std::string("sim.dispatch.") + on.perf.event_types[0].label);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->value(), on.perf.event_types[0].count);
}

TEST(RunReportDeterminism, ScenarioMetricsExported) {
  const TreeResult r = run_tree_experiment(mini_tree(false), 7);
  ASSERT_TRUE(r.telemetry != nullptr);
  // The registry holds the ported scenario metrics and the subsystem
  // snapshots instrumented in this change.
  EXPECT_NE(r.telemetry->find_time_series("scenario.goodput.bytes"), nullptr);
  EXPECT_NE(r.telemetry->find_counter("scenario.capture.captured"), nullptr);
  EXPECT_NE(r.telemetry->find_counter("net.packets.transmitted"), nullptr);
  EXPECT_NE(r.telemetry->find_counter("net.control.total"), nullptr);
  EXPECT_NE(r.telemetry->find_counter("core.defense.captures"), nullptr);
  EXPECT_EQ(r.telemetry->find_counter("scenario.capture.captured")->value(),
            r.captured);
  EXPECT_EQ(r.telemetry->find_counter("core.defense.captures")->value(),
            r.captured);
}

TEST(RunReportDeterminism, StringExperimentProfilingDigestStable) {
  StringExperimentConfig config;
  config.m = 5.0;
  config.p = 0.5;
  config.h = 4;
  config.attacker_rate_bps = 0.1e6;
  config.tau = 0.5;
  config.horizon_seconds = 300.0;
  const StringResult off = run_string_experiment(config, 42);
  config.profile = true;
  const StringResult on = run_string_experiment(config, 42);
  EXPECT_EQ(off.trace_digest, on.trace_digest);
  EXPECT_EQ(off.events_executed, on.events_executed);
  EXPECT_EQ(off.capture_seconds, on.capture_seconds);
}

TEST(RunReportDeterminism, EverySchedulingSiteIsLabelled) {
  // The profiler bills an unlabelled at()/after() to "other"; every site
  // in the model names its layer, so profiled runs export no such counter.
  auto tree = mini_tree(/*profile=*/true);
  tree.tcp_downloads = 1;
  const TreeResult t = run_tree_experiment(tree, 7);
  ASSERT_TRUE(t.telemetry != nullptr);
  EXPECT_NE(t.telemetry->find_counter("sim.dispatch.scenario.tcp.connect"),
            nullptr);
  EXPECT_EQ(t.telemetry->find_counter("sim.dispatch.other"), nullptr);

  StringExperimentConfig string_config;
  string_config.m = 5.0;
  string_config.p = 0.5;
  string_config.h = 4;
  string_config.progressive = true;
  string_config.horizon_seconds = 300.0;
  string_config.profile = true;
  const StringResult s = run_string_experiment(string_config, 42);
  ASSERT_TRUE(s.telemetry != nullptr);
  EXPECT_NE(s.telemetry->find_counter("sim.dispatch.core.hsm.harvest"),
            nullptr);
  EXPECT_EQ(s.telemetry->find_counter("sim.dispatch.other"), nullptr);
}

}  // namespace
}  // namespace hbp::scenario
