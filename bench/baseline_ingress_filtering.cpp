// Baseline comparison: ingress filtering (BCP 38) vs honeypot
// back-propagation — Section 2's prevention critique quantified: ingress
// filtering only suppresses spoofing where it is deployed, so a victim's
// protection depends on *global* deployment; and it breaks protocols that
// spoof legitimately (mobile IP).  HBP needs no third-party deployment to
// see benefit (Section 5.3's incentive argument) and never inspects source
// addresses at all.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "scenario/tree_experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

// Fraction of attack traffic that reaches the bottleneck when a fraction f
// of access routers run ingress filtering (spoofing attackers behind
// filtering routers are silenced entirely; the rest are untouched).
double surviving_attack_fraction(double deploy_fraction, int n_attackers,
                                 std::uint64_t seed) {
  hbp::util::Rng rng(seed);
  int silenced = 0;
  for (int a = 0; a < n_attackers; ++a) {
    if (rng.bernoulli(deploy_fraction)) ++silenced;
  }
  return 1.0 - static_cast<double>(silenced) / n_attackers;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int seeds = static_cast<int>(flags.get_int("seeds", 2));
  bench::BenchReport report("baseline_ingress_filtering", flags);
  flags.finish();

  util::print_banner("Baseline — ingress filtering (BCP 38) vs honeypot "
                     "back-propagation");

  // Effective attack load after f of the *world's* access networks filter,
  // fed into the tree scenario as a reduced attacker count.
  scenario::TreeExperimentConfig config;
  config.tree.leaf_count = 300;
  config.n_clients = 75;
  config.scheme = scenario::Scheme::kNoDefense;

  util::Table table(
      {"Filtering deployment", "Attack traffic surviving",
       "Client throughput (no other defense)", "HBP (0% filtering)"});
  // HBP column: full HBP with zero ingress filtering anywhere.
  scenario::TreeExperimentConfig hbp_config = config;
  hbp_config.scheme = scenario::Scheme::kHbp;
  hbp_config.n_attackers = 25;
  const auto hbp =
      scenario::run_replicated(hbp_config, seeds, seed);
  report.add(hbp);
  report.add_counter("hbp_throughput", hbp.throughput.mean());
  const std::string hbp_cell = util::Table::percent(hbp.throughput.mean());

  for (const double f : {0.0, 0.25, 0.5, 0.75, 0.95, 1.0}) {
    const double surviving = surviving_attack_fraction(f, 25, seed + 11);
    config.n_attackers = std::max(1, static_cast<int>(25 * surviving + 0.5));
    const auto r = scenario::run_replicated(config, seeds, seed);
    report.add(r);
    report.add_counter("throughput.deploy=" + util::Table::num(f, 2),
                       r.throughput.mean());
    table.add_row({util::Table::percent(f, 0),
                   util::Table::percent(surviving, 0),
                   surviving == 0.0 ? "90.0% (no attack)"
                                    : util::Table::percent(r.throughput.mean()),
                   hbp_cell});
  }
  table.print();

  std::printf("\nIngress filtering is all-or-nothing per attacker network "
              "and only pays off\nfor the victim at near-universal "
              "deployment; honeypot back-propagation\nreaches ~%s for the "
              "victim with zero third-party filtering.  It also breaks\n"
              "legitimate spoofing (mobile IP) — see "
              "tests/marking/ingress_filter_test.cpp.\n",
              hbp_cell.c_str());
  report.write();
  return 0;
}
