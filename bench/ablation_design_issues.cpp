// Ablation A3: the Section 5.3 design issues.
//  (b) the activation threshold against benign background probes (false
//      positives: "honeypots receive a large amount of benign traffic");
//  (c) Level-k max-min weighting for Pushback (Section 2, Mitigation);
//  (d) Pushback propagation depth.
// Ingress identification needs no ablation, hence no (a): the divert filter
// reports one edge-id stamp, and packet marking or a GRE-style tunnel would
// carry that same id.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "scenario/string_experiment.hpp"

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  auto config = bench::default_tree_config();
  const auto common = bench::apply_common_flags(flags, config);
  bench::BenchReport report("ablation_design_issues", flags);
  flags.finish();

  util::ThreadPool pool;

  // (b) activation threshold vs benign probes: on the string topology, a
  // benign prober pokes the server pool while no attack runs; count
  // defense activations (all of them false).
  util::print_banner("(b) activation threshold vs benign background probes");
  {
    util::Table table({"Threshold (pkts/window)", "Activations over 40 epochs",
                       "Note"});
    for (const std::uint64_t threshold : {1ull, 3ull, 10ull, 30ull}) {
      // Probes at ~2/s hit a honeypot window (~9.2 s) ~18 times.
      scenario::StringExperimentConfig sc;
      sc.h = 4;
      sc.p = 0.4;
      sc.m = 10.0;
      sc.horizon_seconds = 400.0;
      // Reuse the string harness in probe mode by shaping a low-rate
      // "attack" of benign probes: is_attack=false equivalent is what the
      // false_activation counter keys on, so here we run the tree scenario
      // instead with zero attackers and a benign prober.
      (void)sc;
      auto probe_config = config;
      probe_config.scheme = scenario::Scheme::kHbp;
      probe_config.n_attackers = 0;
      probe_config.hbp.activation_threshold = threshold;
      probe_config.sim_seconds = 100.0;
      // Zero attackers: run_tree_experiment requires n_attackers >= 1 for
      // placement; use 1 attacker with a start beyond the horizon.
      probe_config.n_attackers = 1;
      probe_config.attack_start = 99.0;
      probe_config.attack_end = 99.5;
      probe_config.benign_probe_rate = 2.0;
      const auto r =
          scenario::run_tree_experiment(probe_config, common.base_seed);
      report.add(r);
      report.add_counter(
          "false_activations.threshold=" +
              util::Table::num(static_cast<long long>(threshold)),
          static_cast<double>(r.hbp_false_activations));
      table.add_row(
          {util::Table::num(static_cast<long long>(threshold)),
           util::Table::num(static_cast<long long>(r.hbp_false_activations)),
           threshold == 1 ? "every stray probe wakes the defense"
                          : "probes suppressed"});
    }
    table.print();
  }

  // (c) Level-k max-min weighting for Pushback, close attackers.
  util::print_banner("(c) Pushback vs host-weighted (Level-k) max-min, close "
                     "attackers");
  {
    util::Table table({"Allocator", "Client throughput"});
    config.scheme = scenario::Scheme::kPushback;
    config.placement = scenario::AttackerPlacement::kClose;
    for (const bool weighted : {false, true}) {
      config.pb_weighted_by_hosts = weighted;
      const auto summary = scenario::run_replicated(config, common.seeds,
                                                    common.base_seed, &pool);
      report.add(summary);
      report.add_counter(std::string("throughput.") +
                             (weighted ? "weighted" : "plain"),
                         summary.throughput.mean());
      table.add_row({weighted ? "host-weighted (Level-k style)"
                              : "per-port max-min (plain Pushback)",
                     util::Table::percent(summary.throughput.mean())});
    }
    table.print();
  }

  // (d) Pushback propagation depth: deeper pushback pushes the limiting
  // closer to the sources, where attack and legitimate traffic no longer
  // share ports — less collateral damage.
  util::print_banner("(d) Pushback propagation depth (evenly distributed "
                     "attackers)");
  {
    util::Table table({"max_depth", "Client throughput"});
    config.scheme = scenario::Scheme::kPushback;
    config.placement = scenario::AttackerPlacement::kEven;
    config.pb_weighted_by_hosts = false;
    for (const int depth : {0, 1, 2, 4, 8, 12}) {
      config.pb.max_depth = depth;
      const auto summary = scenario::run_replicated(config, common.seeds,
                                                    common.base_seed, &pool);
      report.add(summary);
      report.add_counter(
          "throughput.depth=" + util::Table::num(static_cast<long long>(depth)),
          summary.throughput.mean());
      table.add_row({util::Table::num(static_cast<long long>(depth)),
                     util::Table::percent(summary.throughput.mean())});
    }
    table.print();
  }

  report.write();
  return 0;
}
