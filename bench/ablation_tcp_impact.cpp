// Ablation A5: the Section 3 damage model on TCP — bulk downloads whose
// ACKs cross the attacked direction of the bottleneck, under the three
// defenses.  Repeatable multi-seed version of examples/tcp_download.
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  auto config = bench::default_tree_config();
  const auto common = bench::apply_common_flags(flags, config);
  config.tcp_downloads = static_cast<int>(flags.get_int("downloads", 3));
  config.n_attackers = static_cast<int>(flags.get_int("attackers", 25));
  bench::BenchReport report("ablation_tcp_impact", flags);
  flags.finish();

  config.sim_seconds = 150.0;
  config.attack_start = 30.0;
  config.attack_end = 140.0;

  util::print_banner("Ablation — TCP download goodput across the bottleneck "
                     "(ACK-path damage, Section 3)");

  util::Table table({"Defense", "Before attack (Mb/s)", "During attack (Mb/s)",
                     "Retained"});
  for (const auto scheme :
       {scenario::Scheme::kNoDefense, scenario::Scheme::kPushback,
        scenario::Scheme::kHbp}) {
    config.scheme = scheme;
    util::RunningStats before, during;
    for (int s = 0; s < common.seeds; ++s) {
      const auto r = scenario::run_tree_experiment(
          config, common.base_seed + static_cast<std::uint64_t>(s));
      before.add(r.tcp_goodput_before);
      during.add(r.tcp_goodput_during);
      report.add(r);
    }
    report.add_counter("tcp_goodput_during." + scenario::to_string(scheme),
                       during.mean());
    table.add_row({scenario::to_string(scheme),
                   util::Table::num(before.mean() / 1e6, 2),
                   util::Table::num(during.mean() / 1e6, 2),
                   util::Table::percent(during.mean() /
                                        std::max(1.0, before.mean()))});
  }
  table.print();

  std::printf("\nThe data direction is never congested: the no-defense "
              "collapse is pure ACK\nloss — \"if TCP ACK packets from "
              "clients to servers get dropped due to the\nattack, the "
              "throughput of TCP flows is degraded\" (Section 3).\n");
  report.write();
  return 0;
}
