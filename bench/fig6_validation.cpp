// Reproduces Fig. 6: validation of Eq. (3) — simulated average capture time
// of basic honeypot back-propagation on a string topology against the
// analytical upper bound m(1/p - 1), in three sweeps:
//   (a) honeypot probability p   (m = 10 s, h = 10)
//   (b) epoch length m           (p = 0.3, h = 10)
//   (c) attacker hop distance h  (m = 10 s, p = 0.3)
// Each point averages --runs simulation runs (paper: 10).
#include <cstdio>

#include "analysis/capture_time.hpp"
#include "bench/bench_util.hpp"
#include "scenario/string_experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

void sweep(const char* title, const char* column,
           const std::vector<double>& xs,
           const std::function<hbp::scenario::StringExperimentConfig(double)>&
               config_for,
           int runs, hbp::util::ThreadPool& pool,
           hbp::bench::BenchReport& report) {
  hbp::util::print_banner(title);
  hbp::util::Table table({column, "Simulation (s)", "95% CI", "Eq. (3) (s)",
                          "Eq. (3) + traversal (s)", "captured"});
  for (const double x : xs) {
    const auto config = config_for(x);
    const auto summary =
        hbp::scenario::run_string_replicated(config, runs, 42, &pool);
    report.add(summary);
    report.add_counter(std::string("capture_s.") + column + "=" +
                           hbp::util::Table::num(x, 2),
                       summary.capture_time.mean());
    hbp::analysis::Params params;
    params.m = config.m;
    params.p = config.p;
    params.h = config.h;
    params.r = config.attacker_rate_bps / (config.packet_size * 8.0);
    params.tau = config.tau;
    const double eq3 = hbp::analysis::basic_continuous(params).seconds;
    // Eq. (3) counts the waiting time for the first honeypot epoch; the
    // full capture time adds the in-window traversal of the h hops.
    const double traversal = params.h * hbp::analysis::hop_time(params);
    table.add_row(
        {hbp::util::Table::num(x, 2),
         hbp::util::Table::num(summary.capture_time.mean(), 1),
         "+/- " + hbp::util::Table::num(summary.capture_time.ci95_halfwidth(), 1),
         hbp::util::Table::num(eq3, 1),
         hbp::util::Table::num(eq3 + traversal, 1),
         hbp::util::Table::num(static_cast<long long>(summary.captured)) + "/" +
             hbp::util::Table::num(static_cast<long long>(summary.runs))});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  const int runs = static_cast<int>(flags.get_int("runs", 10));
  const double tau = flags.get_double("tau", 0.3);
  const double rate = flags.get_double("rate_mbps", 0.1) * 1e6;
  bench::BenchReport report("fig6_validation", flags);
  flags.finish();

  util::ThreadPool pool;

  auto base = [&](double m, double p, int h) {
    scenario::StringExperimentConfig config;
    config.m = m;
    config.p = p;
    config.h = h;
    config.tau = tau;
    config.attacker_rate_bps = rate;
    config.progressive = false;  // basic scheme, as in the paper's Fig. 6
    return config;
  };

  sweep("Fig. 6 (a) — effect of honeypot probability p (m=10 s, h=10)",
        "p", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
        [&](double p) { return base(10.0, p, 10); }, runs, pool, report);

  sweep("Fig. 6 (b) — effect of epoch length m (p=0.3, h=10)",
        "m (s)", {6, 8, 10, 12, 14, 16, 20},
        [&](double m) { return base(m, 0.3, 10); }, runs, pool, report);

  sweep("Fig. 6 (c) — effect of attacker hop distance h (m=10 s, p=0.3)",
        "h", {2, 5, 10, 15, 20},
        [&](double h) { return base(10.0, 0.3, static_cast<int>(h)); }, runs,
        pool, report);

  std::printf("\nPaper shape: the simulated capture time tracks Eq. (3) plus "
              "the in-window\ntraversal h(1/r+tau); it falls with p, grows "
              "with m, and is roughly flat in h\nwhile m >= h(1/r+tau) (the "
              "basic scheme's validity condition).\n");
  report.write();
  return 0;
}
