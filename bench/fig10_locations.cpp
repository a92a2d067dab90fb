// Reproduces Fig. 10: "Effect of attacker locations" — mean client
// throughput (% of the bottleneck) during the attack, for attackers placed
// at the closest leaves, evenly at random, and at the furthest leaves;
// 75 clients, 25 attackers at 1.0 Mb/s each.
//
// Expected shape (paper): honeypot back-propagation is insensitive to
// location; ACC/Pushback punishes legitimate traffic more as attackers get
// closer, and is worse than no defense for close attackers ("it actually
// protects attack traffic").
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  auto config = bench::default_tree_config();
  const auto common = bench::apply_common_flags(flags, config);
  config.n_attackers = static_cast<int>(flags.get_int("attackers", 25));
  config.attacker_rate_bps = flags.get_double("rate_mbps", 1.0) * 1e6;
  bench::BenchReport report("fig10_locations", flags);
  flags.finish();

  util::print_banner(
      "Fig. 10 — client throughput vs attacker location "
      "(75 clients x 0.12 Mb/s, 25 attackers x 1.0 Mb/s)");

  util::ThreadPool pool;
  util::Table table({"Attacker Location", "Honeypot Back-propagation",
                     "Pushback", "No Defense"});

  for (const auto placement :
       {scenario::AttackerPlacement::kFar, scenario::AttackerPlacement::kEven,
        scenario::AttackerPlacement::kClose}) {
    config.placement = placement;
    std::vector<std::string> row{scenario::to_string(placement)};
    for (const auto scheme :
         {scenario::Scheme::kHbp, scenario::Scheme::kPushback,
          scenario::Scheme::kNoDefense}) {
      config.scheme = scheme;
      const auto summary = scenario::run_replicated(config, common.seeds,
                                                    common.base_seed, &pool);
      report.add(summary);
      report.add_counter("throughput." + scenario::to_string(placement) + "." +
                             scenario::to_string(scheme),
                         summary.throughput.mean());
      row.push_back(util::Table::percent(summary.throughput.mean()) + " +/- " +
                    util::Table::percent(summary.throughput.ci95_halfwidth()));
    }
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\nPaper shape: HBP flat and high in all three columns; "
              "Pushback degrades toward 'Close'\nand drops below No Defense "
              "there.\n");
  report.write();
  return 0;
}
