// Ablation A1: basic vs progressive honeypot back-propagation against
// low-rate on-off attacks (the simulation counterpart of Sections 6/7.3 and
// Fig. 5).  Sweeps the burst length t_on on the string topology and
// measures capture time and capture rate for both schemes, alongside the
// analytical prediction, plus a follower-attack row.
#include <cstdio>

#include "analysis/capture_time.hpp"
#include "bench/bench_util.hpp"
#include "scenario/string_experiment.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace hbp;
  util::Flags flags(argc, argv);
  const int runs = static_cast<int>(flags.get_int("runs", 6));
  const int h = static_cast<int>(flags.get_int("h", 6));
  const double t_off = flags.get_double("t_off", 7.0);
  const auto t_ons = flags.get_double_list("t_on", {1.5, 3.0, 6.0, 12.0, 25.0});
  bench::BenchReport report("ablation_progressive", flags);
  flags.finish();

  util::ThreadPool pool;

  scenario::StringExperimentConfig base;
  base.m = 10.0;
  base.p = 0.4;
  base.h = h;
  base.tau = 0.5;
  base.attacker_rate_bps = 0.1e6;  // 12.5 packets/s — low-rate attacker
  base.horizon_seconds = 3000.0;

  util::print_banner("Ablation — basic vs progressive against on-off attacks "
                     "(string topology, h=" + std::to_string(h) +
                     ", t_off=" + util::Table::num(t_off, 0) + " s)");

  util::Table table({"t_on (s)", "basic: captured", "basic: time (s)",
                     "progressive: captured", "progressive: time (s)",
                     "Eq. prediction (s)"});

  auto run = [&](scenario::StringExperimentConfig config) {
    return scenario::run_string_replicated(config, runs, 7, &pool);
  };

  for (const double t_on : t_ons) {
    auto config = base;
    config.onoff_t_on = t_on;
    config.onoff_t_off = t_off;

    config.progressive = false;
    const auto basic = run(config);
    config.progressive = true;
    const auto progressive = run(config);
    report.add(basic);
    report.add(progressive);
    report.add_counter("captured.basic.t_on=" + util::Table::num(t_on, 1),
                       static_cast<double>(basic.captured));
    report.add_counter("captured.progressive.t_on=" + util::Table::num(t_on, 1),
                       static_cast<double>(progressive.captured));

    analysis::Params params;
    params.m = base.m;
    params.p = base.p;
    params.h = base.h;
    params.r = base.attacker_rate_bps / 8000.0;
    params.tau = base.tau;
    const auto predicted = analysis::progressive_onoff(params, t_on, t_off);

    auto frac = [&](const scenario::StringSummary& s) {
      return util::Table::num(static_cast<long long>(s.captured)) + "/" +
             util::Table::num(static_cast<long long>(s.runs));
    };
    auto time = [&](const scenario::StringSummary& s) {
      return s.captured > 0 ? util::Table::num(s.capture_time.mean(), 0) : "-";
    };
    table.add_row({util::Table::num(t_on, 1), frac(basic), time(basic),
                   frac(progressive), time(progressive),
                   util::Table::num(predicted.seconds, 0) +
                       (predicted.valid ? "" : " (cond!)")});
  }
  table.print();

  // Follower attack (Section 7.3): the attacker goes quiet d_follow seconds
  // into each honeypot epoch.
  util::print_banner("Follower attack (d_follow sweep, progressive scheme)");
  util::Table follower_table({"d_follow (s)", "captured", "time (s)",
                              "Eq. prediction (s)"});
  for (const double d : {1.0, 2.0, 4.0}) {
    auto config = base;
    config.progressive = true;
    config.follower_delay = d;
    const auto summary = run(config);
    report.add(summary);
    report.add_counter("captured.follower.d=" + util::Table::num(d, 1),
                       static_cast<double>(summary.captured));
    analysis::Params params;
    params.m = base.m;
    params.p = base.p;
    params.h = base.h;
    params.r = base.attacker_rate_bps / 8000.0;
    params.tau = base.tau;
    const auto predicted = analysis::progressive_follower(params, d);
    follower_table.add_row(
        {util::Table::num(d, 1),
         util::Table::num(static_cast<long long>(summary.captured)) + "/" +
             util::Table::num(static_cast<long long>(summary.runs)),
         summary.captured > 0 ? util::Table::num(summary.capture_time.mean(), 0)
                              : "-",
         util::Table::num(predicted.seconds, 0) +
             (predicted.valid ? "" : " (cond!)")});
  }
  follower_table.print();

  std::printf("\nPaper shape: with short bursts the basic scheme stalls "
              "(sessions restart from\nscratch every epoch) while the "
              "progressive scheme keeps converging via the\nintermediate-AS "
              "list; slower followers are captured faster.\n");
  report.write();
  return 0;
}
