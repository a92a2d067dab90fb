// Section 8.4's third axis: the effect of the per-attacker rate.  The
// surviving text announces the study ("... and the attack rate per attack
// host"); the figure itself was lost in the source scan, so this bench
// reconstructs the series: 25 evenly-distributed attackers sweeping their
// per-host rate.
//
// Expected shape: no defense degrades with total attack volume; HBP is
// roughly flat (higher rates even speed up signature collection); low-rate
// attackers take HBP longer to trace (fewer packets per honeypot window).
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  auto config = bench::default_tree_config();
  const auto common = bench::apply_common_flags(flags, config);
  config.n_attackers = static_cast<int>(flags.get_int("attackers", 25));
  const auto rates =
      flags.get_double_list("rates_mbps", {0.1, 0.25, 0.5, 1.0, 2.0});
  bench::BenchReport report("fig12_attack_rate", flags);
  flags.finish();

  util::print_banner("Fig. 12 (reconstructed) — client throughput vs attack "
                     "rate per host (25 attackers)");

  util::ThreadPool pool;
  util::Table table({"Rate (Mb/s)", "Honeypot Back-propagation", "Pushback",
                     "No Defense", "HBP capture delay"});
  for (const double rate : rates) {
    config.attacker_rate_bps = rate * 1e6;
    std::vector<std::string> row{util::Table::num(rate, 2)};
    double delay = -1;
    for (const auto scheme :
         {scenario::Scheme::kHbp, scenario::Scheme::kPushback,
          scenario::Scheme::kNoDefense}) {
      config.scheme = scheme;
      const auto summary =
          scenario::run_replicated(config, common.seeds, common.base_seed,
                                   &pool);
      report.add(summary);
      report.add_counter("throughput.rate=" + util::Table::num(rate, 2) + "." +
                             scenario::to_string(scheme),
                         summary.throughput.mean());
      row.push_back(util::Table::percent(summary.throughput.mean()) +
                    " +/- " +
                    util::Table::percent(summary.throughput.ci95_halfwidth()));
      if (scheme == scenario::Scheme::kHbp) {
        delay = summary.capture_delay.count() > 0
                    ? summary.capture_delay.mean()
                    : -1;
      }
    }
    row.push_back(delay >= 0 ? util::Table::num(delay, 1) + " s" : "-");
    table.add_row(std::move(row));
  }
  table.print();
  report.write();
  return 0;
}
