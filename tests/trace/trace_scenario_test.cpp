// End-to-end tracing guarantees, pinned by ctest:
//
//  * observational purity — running a scenario with tracing enabled leaves
//    the trace digest and event count bit-identical to an untraced run;
//  * export determinism — two traced runs of the same seed produce
//    byte-identical JSON and CSV files;
//  * Perfetto shape — every line of a tree run's JSON export is an entry
//    Perfetto and chrome://tracing accept.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "scenario/string_experiment.hpp"
#include "scenario/tree_experiment.hpp"
#include "telemetry/registry.hpp"

namespace hbp::scenario {
namespace {

// The StringBasicContinuous golden configuration (small and fast, ~1500
// events), so any digest drift here would also trip the golden tests.
StringExperimentConfig small_config() {
  StringExperimentConfig config;
  config.m = 5.0;
  config.p = 0.5;
  config.h = 4;
  config.attacker_rate_bps = 0.1e6;
  config.tau = 0.5;
  config.progressive = false;
  config.horizon_seconds = 300.0;
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(TraceScenario, TracingLeavesDigestAndEventCountUnchanged) {
  const StringResult plain = run_string_experiment(small_config(), 42);

  StringExperimentConfig traced = small_config();
  traced.trace_path = testing::TempDir() + "hbp_trace_onoff.json";
  const StringResult with_trace = run_string_experiment(traced, 42);
  std::remove(traced.trace_path.c_str());

  EXPECT_EQ(plain.trace_digest, with_trace.trace_digest);
  EXPECT_EQ(plain.events_executed, with_trace.events_executed);
  EXPECT_EQ(plain.captured, with_trace.captured);
  EXPECT_EQ(plain.capture_seconds, with_trace.capture_seconds);
  EXPECT_EQ(plain.control_messages, with_trace.control_messages);
}

TEST(TraceScenario, JsonExportIsByteIdenticalAcrossRuns) {
  StringExperimentConfig config = small_config();
  config.trace_path = testing::TempDir() + "hbp_trace_a.json";
  run_string_experiment(config, 42);
  const std::string first = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  config.trace_path = testing::TempDir() + "hbp_trace_b.json";
  run_string_experiment(config, 42);
  const std::string second = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(TraceScenario, CsvExportIsByteIdenticalAcrossRuns) {
  StringExperimentConfig config = small_config();
  config.trace_path = testing::TempDir() + "hbp_trace_a.csv";
  run_string_experiment(config, 42);
  const std::string first = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  config.trace_path = testing::TempDir() + "hbp_trace_b.csv";
  run_string_experiment(config, 42);
  const std::string second = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.find("t_ns,verb,node,node_name,id,cause,a,b\n"), 0u);
}

TEST(TraceScenario, TraceCapturesTheWholeBackPropagationWave) {
  // The string run ends in a capture, so the trace must contain the full
  // causal chain: data-plane spans, the honeypot hit, the activation, the
  // propagated requests, and the final switch-port capture.
  StringExperimentConfig config = small_config();
  config.trace_path = testing::TempDir() + "hbp_trace_wave.csv";
  const StringResult result = run_string_experiment(config, 42);
  ASSERT_TRUE(result.captured);
  const std::string csv = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  for (const char* verb :
       {",send,", ",enqueue,", ",deliver,", ",window_start,", ",honeypot_hit,",
        ",hbp_activate,", ",honeypot_request,", ",session_open,", ",divert,",
        ",upstream,", ",capture,"}) {
    EXPECT_NE(csv.find(verb), std::string::npos) << "missing verb " << verb;
  }
  // The telemetry side sees the same history: trace counters are exported
  // into the deterministic registry section.
  ASSERT_TRUE(result.telemetry);
  ASSERT_NE(result.telemetry->find_counter("trace.recorded"), nullptr);
  EXPECT_GT(result.telemetry->find_counter("trace.recorded")->value(), 0u);
}

// The raw value text after `"key":` in one JSON entry, up to the next ','
// or '}' ("" when the key is absent).
std::string_view json_field(std::string_view entry, std::string_view key) {
  const std::string quoted = "\"" + std::string(key) + "\":";
  const std::size_t at = entry.find(quoted);
  if (at == std::string_view::npos) return {};
  entry.remove_prefix(at + quoted.size());
  return entry.substr(0, entry.find_first_of(",}"));
}

std::int64_t parse_int(std::string_view text) {
  std::int64_t value = -1;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  return ec == std::errc{} && ptr == text.data() + text.size() ? value : -1;
}

TEST(TraceScenario, TreeJsonExportIsWellFormedOnEveryLine) {
  // CI's traced-smoke scenario (`simulate --leaves=12 --clients=2
  // --attackers=1 --rate_mbps=0.1 --legit_load=0.2 --duration=10
  // --attack_start=2 --attack_end=9 --epoch=2 --seed=5 --trace=...json`).
  TreeExperimentConfig config;
  config.tree.leaf_count = 12;
  config.n_clients = 2;
  config.n_attackers = 1;
  config.attacker_rate_bps = 0.1e6;
  config.legit_load = 0.2;
  config.sim_seconds = 10.0;
  config.attack_start = 2.0;
  config.attack_end = 9.0;
  config.epoch_seconds = 2.0;
  config.trace_path = testing::TempDir() + "hbp_trace_tree.json";
  const TreeResult result = run_tree_experiment(config, 5);
  const std::string json = slurp(config.trace_path);
  std::remove(config.trace_path.c_str());

  const std::string_view open = "{\"traceEvents\":[";
  const std::string_view close = "],\"displayTimeUnit\":\"ms\"}\n";
  ASSERT_EQ(json.rfind(open, 0), 0u);
  ASSERT_GE(json.size(), open.size() + close.size());
  ASSERT_EQ(json.compare(json.size() - close.size(), close.size(), close), 0);

  // One entry per line, each but the last followed by a comma.
  std::string_view body(json);
  body.remove_prefix(open.size());
  body.remove_suffix(close.size() + 1);  // and the newline before it
  std::uint64_t metadata = 0;
  std::uint64_t instants = 0;
  std::int64_t last_ts_ns = 0;
  std::size_t line = 0;
  while (!body.empty()) {
    const std::size_t end = body.find('\n');
    std::string_view entry = body.substr(0, end);
    body.remove_prefix(end == std::string_view::npos ? body.size() : end + 1);
    ASSERT_FALSE(entry.empty()) << "line " << line;
    if (!body.empty()) {
      ASSERT_EQ(entry.back(), ',') << "line " << line;
      entry.remove_suffix(1);
    }
    ASSERT_TRUE(entry.size() >= 2 && entry.front() == '{' &&
                entry.back() == '}')
        << "line " << line << ": " << entry;
    const std::string_view ph = json_field(entry, "ph");
    if (ph == "\"M\"") {
      ASSERT_EQ(instants, 0u) << "metadata after an instant: " << entry;
      ++metadata;
    } else {
      ASSERT_EQ(ph, "\"i\"") << entry;
      const std::string_view name = json_field(entry, "name");
      ASSERT_GT(name.size(), 2u) << entry;  // a quoted, non-empty verb
      ASSERT_EQ(json_field(entry, "pid"), "1") << entry;
      ASSERT_GE(parse_int(json_field(entry, "tid")), 1) << entry;
      // ts is microseconds with exactly three decimals.
      const std::string_view ts = json_field(entry, "ts");
      const std::size_t dot = ts.find('.');
      ASSERT_NE(dot, std::string_view::npos) << entry;
      ASSERT_EQ(ts.size() - dot, 4u) << entry;
      const std::int64_t us = parse_int(ts.substr(0, dot));
      const std::int64_t frac = parse_int(ts.substr(dot + 1));
      ASSERT_TRUE(us >= 0 && frac >= 0) << entry;
      const std::int64_t ts_ns = us * 1000 + frac;
      ASSERT_GE(ts_ns, last_ts_ns) << "ts went backwards: " << entry;
      last_ts_ns = ts_ns;
      ++instants;
    }
    ++line;
  }

  ASSERT_TRUE(result.telemetry);
  const auto* recorded = result.telemetry->find_counter("trace.recorded");
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(instants, recorded->value());
  EXPECT_GT(instants, 0u);
  EXPECT_GT(metadata, 1u);  // the control plane plus one line per node
}

}  // namespace
}  // namespace hbp::scenario
