// Reproduces Fig. 8: time plot of one simulation run — legitimate client
// throughput (% of the bottleneck) vs time for honeypot back-propagation,
// Pushback, and no defense.  Attack from t = 5 s to t = 95 s; 25 evenly
// distributed attackers at 1.0 Mb/s each.
//
// Expected shape: all three dip when the attack starts; only HBP recovers
// (staircase-like, as each honeypot epoch captures another wave of
// attackers), Pushback recovers partially, no defense stays down.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "telemetry/report.hpp"

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  auto config = bench::default_tree_config();
  const auto common = bench::apply_common_flags(flags, config);
  config.n_attackers = static_cast<int>(flags.get_int("attackers", 25));
  config.attacker_rate_bps = flags.get_double("rate_mbps", 1.0) * 1e6;
  bench::BenchReport report("fig8_timeplot", flags);
  // Full hbp-run-report/1 + CSV time-series dump of the HBP run.
  const std::string report_path = flags.get_string("report", "");
  const std::string csv_path = flags.get_string("csv", "");
  flags.finish();

  util::print_banner("Fig. 8 — client throughput over time (one run, attack "
                     "from t=5 s to t=95 s)");

  std::vector<std::vector<scenario::ThroughputMeter::Point>> lines;
  std::vector<std::string> names;
  std::vector<scenario::TreeResult> results;
  for (const auto scheme :
       {scenario::Scheme::kHbp, scenario::Scheme::kPushback,
        scenario::Scheme::kNoDefense}) {
    config.scheme = scheme;
    auto result = scenario::run_tree_experiment(config, common.base_seed);
    report.add(result);
    report.add_counter("throughput." + scenario::to_string(scheme),
                       result.mean_client_throughput);
    names.push_back(scenario::to_string(scheme));
    lines.push_back(result.timeline);
    results.push_back(std::move(result));
  }

  util::Table table({"t (s)", "HBP %", "Pushback %", "No Defense %"});
  for (std::size_t bin = 0; bin < lines[0].size(); ++bin) {
    if (bin % 2 != 0) continue;  // print every 2 s
    table.add_row({util::Table::num(lines[0][bin].t_seconds, 0),
                   util::Table::num(lines[0][bin].fraction * 100, 1),
                   util::Table::num(lines[1][bin].fraction * 100, 1),
                   util::Table::num(lines[2][bin].fraction * 100, 1)});
  }
  table.print();

  std::printf("\nHBP: %zu/%zu attackers captured (first %.1f s, last %.1f s "
              "after attack start).\n",
              results[0].captured, results[0].attackers,
              results[0].mean_capture_delay, results[0].max_capture_delay);
  std::printf("Mean during attack: HBP %.1f%%, Pushback %.1f%%, "
              "No Defense %.1f%%.\n",
              results[0].mean_client_throughput * 100,
              results[1].mean_client_throughput * 100,
              results[2].mean_client_throughput * 100);

  if (!report_path.empty() || !csv_path.empty()) {
    const scenario::TreeResult& hbp = results[0];
    telemetry::RunManifest manifest;
    manifest.name = "fig8_timeplot";
    manifest.seed = common.base_seed;
    manifest.trace_digest = hbp.trace_digest;
    manifest.events_executed = hbp.events_executed;
    manifest.sim_seconds = config.sim_seconds;
    manifest.set("scheme", scenario::to_string(scenario::Scheme::kHbp));
    manifest.set_int("leaves",
                     static_cast<std::int64_t>(config.tree.leaf_count));
    manifest.set_int("n_clients", config.n_clients);
    manifest.set_int("n_attackers", config.n_attackers);
    manifest.set_double("attacker_rate_bps", config.attacker_rate_bps);
    manifest.set_double("attack_start", config.attack_start);
    manifest.set_double("attack_end", config.attack_end);
    manifest.set_double("sim_seconds", config.sim_seconds);
    if (!report_path.empty()) {
      telemetry::write_run_report(report_path, manifest, hbp.telemetry.get(),
                                  &hbp.perf);
      std::printf("Wrote %s\n", report_path.c_str());
    }
    if (!csv_path.empty() && hbp.telemetry) {
      telemetry::write_timeseries_csv(csv_path, *hbp.telemetry);
      std::printf("Wrote %s\n", csv_path.c_str());
    }
  }
  report.write();
  return 0;
}
