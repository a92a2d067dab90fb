// Golden-digest regression tests: small fixed-seed configurations whose
// trace digests and headline metrics are pinned in tests/golden/.  Any
// change to event ordering, packet handling, RNG streams, or protocol
// timing shifts the digest and fails these tests — intentional changes are
// ratified by regenerating the files:
//
//   HBP_UPDATE_GOLDEN=1 ctest -R Golden
//
// and committing the diff alongside the change that caused it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenario/string_experiment.hpp"
#include "scenario/tree_experiment.hpp"

namespace hbp::scenario {
namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

bool update_mode() { return std::getenv("HBP_UPDATE_GOLDEN") != nullptr; }

std::string golden_path(const std::string& name) {
  return std::string(HBP_GOLDEN_DIR) + "/" + name;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string dec64(std::uint64_t v) {
  return std::to_string(static_cast<unsigned long long>(v));
}

std::string real(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_golden(const std::string& path, const Entries& entries) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  for (const auto& [key, value] : entries) {
    out << key << "=" << value << "\n";
  }
}

std::map<std::string, std::string> load_golden(const std::string& path) {
  std::map<std::string, std::string> result;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    result[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return result;
}

void check_golden(const std::string& name, const Entries& entries) {
  const std::string path = golden_path(name);
  if (update_mode()) {
    write_golden(path, entries);
    GTEST_SKIP() << "golden file refreshed: " << path;
  }
  const auto golden = load_golden(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << path
      << " — regenerate with HBP_UPDATE_GOLDEN=1 ctest -R Golden";
  for (const auto& [key, value] : entries) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << name << ": golden file lacks key " << key;
    EXPECT_EQ(it->second, value)
        << name << ": " << key << " drifted from the golden value — if the "
        << "change is intentional, refresh with HBP_UPDATE_GOLDEN=1";
  }
  EXPECT_EQ(golden.size(), entries.size())
      << name << ": golden file has stale extra keys";
}

Entries string_entries(const StringResult& r) {
  return {
      {"trace_digest", hex64(r.trace_digest)},
      {"events_executed", dec64(r.events_executed)},
      {"captured", r.captured ? "1" : "0"},
      {"capture_seconds", real(r.capture_seconds)},
      {"control_messages", dec64(r.control_messages)},
      {"reports", dec64(r.reports)},
  };
}

// E2 (Fig. 6 point): basic scheme, continuous attack on a short string.
TEST(GoldenDigest, StringBasicContinuous) {
  StringExperimentConfig config;
  config.m = 5.0;
  config.p = 0.5;
  config.h = 4;
  config.attacker_rate_bps = 0.1e6;
  config.tau = 0.5;
  config.progressive = false;
  config.horizon_seconds = 300.0;
  check_golden("string_basic_continuous.txt",
               string_entries(run_string_experiment(config, 42)));
}

// A1 (Fig. 8 point): progressive scheme against an on-off attacker.
TEST(GoldenDigest, StringProgressiveOnOff) {
  StringExperimentConfig config;
  config.m = 5.0;
  config.p = 0.4;
  config.h = 4;
  config.attacker_rate_bps = 0.1e6;
  config.tau = 0.5;
  config.progressive = true;
  config.onoff_t_on = 3.0;
  config.onoff_t_off = 5.0;
  config.horizon_seconds = 400.0;
  check_golden("string_progressive_onoff.txt",
               string_entries(run_string_experiment(config, 11)));
}

TreeExperimentConfig tree_hbp_small_config() {
  TreeExperimentConfig config;
  config.scheme = Scheme::kHbp;
  config.tree.leaf_count = 60;
  config.n_clients = 12;
  config.n_attackers = 6;
  config.attacker_rate_bps = 0.5e6;
  config.sim_seconds = 30.0;
  config.attack_start = 5.0;
  config.attack_end = 25.0;
  config.epoch_seconds = 5.0;
  return config;
}

std::string telemetry_counter(const TreeResult& r, std::string_view name) {
  const telemetry::Counter* counter = r.telemetry->find_counter(name);
  return counter == nullptr ? "absent" : dec64(counter->value());
}

// E4 (Section 8.3): the full tree scenario with the HBP defense.
TEST(GoldenDigest, TreeHbpSmall) {
  const TreeResult r = run_tree_experiment(tree_hbp_small_config(), 7);
  check_golden("tree_hbp_small.txt",
               {
                   {"trace_digest", hex64(r.trace_digest)},
                   {"events_executed", dec64(r.events_executed)},
                   {"captured", dec64(r.captured)},
                   {"false_captures", dec64(r.false_captures)},
                   {"mean_client_throughput", real(r.mean_client_throughput)},
                   {"control_messages", dec64(r.control_messages)},
               });
}

// A2 (Section 5.3): half the ASs deploy, so requests and cancels bridge
// deployment gaps; edge-id stamps identify ingress, and stalled transit
// ASs send progressive reports.
TEST(GoldenDigest, TreeHbpPartialDeployment) {
  TreeExperimentConfig config = tree_hbp_small_config();
  config.hbp_deploy_fraction = 0.5;
  const TreeResult r = run_tree_experiment(config, 3);
  ASSERT_NE(r.telemetry, nullptr);
  check_golden("tree_hbp_partial_deployment.txt",
               {
                   {"trace_digest", hex64(r.trace_digest)},
                   {"events_executed", dec64(r.events_executed)},
                   {"captured", dec64(r.captured)},
                   {"false_captures", dec64(r.false_captures)},
                   {"control_messages", dec64(r.control_messages)},
                   {"bridged_messages",
                    telemetry_counter(r, "core.defense.bridged_messages")},
                   {"intermediate_reports",
                    telemetry_counter(r, "net.control.sent.intermediate_report")},
               });
}

Entries tree_pushback_entries(const TreeResult& r) {
  return {
      {"trace_digest", hex64(r.trace_digest)},
      {"events_executed", dec64(r.events_executed)},
      {"mean_client_throughput", real(r.mean_client_throughput)},
      {"control_messages", dec64(r.control_messages)},
      {"pushback_requests", dec64(r.pushback_requests)},
      {"pushback_limited_drops", dec64(r.pushback_limited_drops)},
  };
}

// E4 baseline (Figs. 8/10/11): the same tree traffic under Pushback, so
// congestion detection, max-min limits and upstream propagation all run.
TEST(GoldenDigest, TreePushbackSmall) {
  TreeExperimentConfig config = tree_hbp_small_config();
  config.scheme = Scheme::kPushback;
  check_golden("tree_pushback_small.txt",
               tree_pushback_entries(run_tree_experiment(config, 7)));
}

// Level-k variant: the upstream split is weighted by the leaf hosts behind
// each port.
TEST(GoldenDigest, TreePushbackLevelK) {
  TreeExperimentConfig config = tree_hbp_small_config();
  config.scheme = Scheme::kPushback;
  config.pb_weighted_by_hosts = true;
  check_golden("tree_pushback_level_k.txt",
               tree_pushback_entries(run_tree_experiment(config, 7)));
}

}  // namespace
}  // namespace hbp::scenario
