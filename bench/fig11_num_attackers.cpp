// Reproduces Fig. 11: "Effect of number of attackers" — mean client
// throughput during the attack vs the number of evenly-distributed
// attackers at 0.5 Mb/s each, for the three schemes.
//
// Expected shape: HBP stays flat and high; Pushback and no defense degrade
// as attackers multiply, with Pushback's advantage shrinking because more
// attackers sit close to the victim, where max-min protects them.
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  auto config = bench::default_tree_config();
  const auto common = bench::apply_common_flags(flags, config);
  config.attacker_rate_bps = flags.get_double("rate_mbps", 0.5) * 1e6;
  const auto counts =
      flags.get_double_list("counts", {10, 25, 50, 75, 100});
  bench::BenchReport report("fig11_num_attackers", flags);
  flags.finish();

  util::print_banner(
      "Fig. 11 — client throughput vs number of attackers "
      "(0.5 Mb/s per attacker, evenly distributed)");

  util::ThreadPool pool;
  util::Table table({"Attackers", "Honeypot Back-propagation", "Pushback",
                     "No Defense", "HBP captured"});
  for (const double n : counts) {
    config.n_attackers = static_cast<int>(n);
    std::vector<std::string> row{util::Table::num(static_cast<long long>(n))};
    double captured = 0;
    for (const auto scheme :
         {scenario::Scheme::kHbp, scenario::Scheme::kPushback,
          scenario::Scheme::kNoDefense}) {
      config.scheme = scheme;
      const auto summary =
          scenario::run_replicated(config, common.seeds, common.base_seed,
                                   &pool);
      report.add(summary);
      report.add_counter("throughput.n=" +
                             util::Table::num(static_cast<long long>(n)) + "." +
                             scenario::to_string(scheme),
                         summary.throughput.mean());
      row.push_back(util::Table::percent(summary.throughput.mean()) +
                    " +/- " +
                    util::Table::percent(summary.throughput.ci95_halfwidth()));
      if (scheme == scenario::Scheme::kHbp) {
        captured = summary.capture_fraction.mean();
      }
    }
    row.push_back(util::Table::percent(captured));
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\nPaper shape: HBP roughly flat; Pushback and No Defense fall "
              "as the attacker\ncount grows.\n");
  report.write();
  return 0;
}
