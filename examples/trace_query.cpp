// Filters a causal-trace CSV (from `simulate --trace=run.csv`) and
// summarises the HBP back-propagation wave the matching events form: first
// and last time, nodes touched, verbs seen, and the control-plane
// milestones in order.
//
//   ./build/examples/trace_query run.csv --verb=capture  # every port shutoff
//   ./build/examples/trace_query run.csv --node=3        # everything at node 3
//   ./build/examples/trace_query run.csv --id=42         # id or cause is 42
//
// Filters combine; --limit (default 40) caps the event lines printed.
// Exits 1 when no event matches.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "trace/export.hpp"
#include "util/flags.hpp"

namespace {

using hbp::sim::TraceVerb;

// Wave milestones: the honeypot and HBP control-plane verbs (window_start
// onward in the verb list, pushback included) plus the divert report.
bool is_milestone(TraceVerb verb) {
  return verb == TraceVerb::kDivert || verb >= TraceVerb::kWindowStart;
}

// Integer nanoseconds as zero-padded seconds ("0.003000000").
std::string seconds(hbp::sim::SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%09lld",
                static_cast<long long>(t.nanos() / 1'000'000'000),
                static_cast<long long>(t.nanos() % 1'000'000'000));
  return buf;
}

// "  t=<seconds>s <verb> node=<id>(<name>) id=<id> cause=<uid> a=<a> b=<b>"
void print_row(const hbp::trace::CsvRow& row) {
  const hbp::sim::TraceEvent& e = row.event;
  const std::string name =
      row.node_name.empty() ? "" : "(" + row.node_name + ")";
  std::printf("  t=%ss %s node=%d%s id=%llu cause=%llu a=%d b=%d\n",
              seconds(e.t).c_str(), hbp::sim::verb_name(e.verb), e.node,
              name.c_str(), static_cast<unsigned long long>(e.id),
              static_cast<unsigned long long>(e.cause), e.a, e.b);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbp;
  if (argc < 2 || std::string(argv[1]).rfind("--", 0) == 0) {
    std::fprintf(stderr,
                 "usage: %s <trace.csv> [--node=<id>] [--id=<uid>] "
                 "[--verb=<verb>] [--limit=<n>]\n",
                 argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  argv[1] = argv[0];  // Flags takes argv[0] as the program name
  util::Flags flags(argc - 1, argv + 1);
  const bool by_node = flags.has("node");
  const auto node = static_cast<sim::NodeId>(flags.get_int("node", 0));
  const bool by_id = flags.has("id");
  const auto id = static_cast<std::uint64_t>(flags.get_int("id", 0));
  const std::string verb = flags.get_string("verb", "");
  const std::int64_t limit = flags.get_int("limit", 40);
  flags.finish();

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "no such file: %s\n", path.c_str());
    return 1;
  }
  std::vector<trace::CsvRow> rows;
  std::string error;
  if (!trace::read_csv(in, rows, error)) {
    std::fprintf(stderr, "%s: %s; export one with --trace=run.csv\n",
                 path.c_str(), error.c_str());
    return 1;
  }

  std::int64_t matched = 0;
  const trace::CsvRow* first = nullptr;
  const trace::CsvRow* last = nullptr;
  std::vector<TraceVerb> verbs_seen;  // in order of first appearance
  std::set<sim::NodeId> nodes_seen;
  std::vector<const trace::CsvRow*> milestones;
  for (const trace::CsvRow& row : rows) {
    const sim::TraceEvent& e = row.event;
    if (by_node && e.node != node) continue;
    if (!verb.empty() && verb != sim::verb_name(e.verb)) continue;
    if (by_id && e.id != id && e.cause != id) continue;

    if (first == nullptr) first = &row;
    last = &row;
    if (std::find(verbs_seen.begin(), verbs_seen.end(), e.verb) ==
        verbs_seen.end()) {
      verbs_seen.push_back(e.verb);
    }
    nodes_seen.insert(e.node);
    if (is_milestone(e.verb)) milestones.push_back(&row);
    if (matched++ < limit) print_row(row);
  }

  if (matched == 0) {
    std::fprintf(stderr, "no events matched the filter\n");
    return 1;
  }
  if (matched > limit) {
    const std::int64_t shown = std::max<std::int64_t>(limit, 0);
    std::printf("  ... %lld more (raise --limit to show them)\n",
                static_cast<long long>(matched - shown));
  }

  std::string verb_list;
  for (const TraceVerb v : verbs_seen) {
    if (!verb_list.empty()) verb_list += ", ";
    verb_list += sim::verb_name(v);
  }
  std::printf("\nsummary:\n");
  std::printf("  %lld events over t=[%ss, %ss]\n",
              static_cast<long long>(matched), seconds(first->event.t).c_str(),
              seconds(last->event.t).c_str());
  std::printf("  nodes touched: %zu\n", nodes_seen.size());
  std::printf("  verbs seen: %s\n", verb_list.c_str());

  if (!milestones.empty()) {
    constexpr std::size_t kMaxMilestones = 30;
    std::printf("\nback-propagation wave milestones:\n");
    for (std::size_t i = 0; i < milestones.size() && i < kMaxMilestones; ++i) {
      print_row(*milestones[i]);
    }
    if (milestones.size() > kMaxMilestones) {
      std::printf("  ... %zu more\n", milestones.size() - kMaxMilestones);
    }
  }
  return 0;
}
