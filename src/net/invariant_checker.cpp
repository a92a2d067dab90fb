#include "net/invariant_checker.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "net/link.hpp"
#include "net/network.hpp"
#include "util/assert.hpp"

namespace hbp::net {

namespace {

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

InvariantChecker::InvariantChecker(Network& network, Options options)
    : network_(network), options_(options) {}

void InvariantChecker::check_into(std::vector<std::string>& out,
                                  bool require_quiescent) {
  ++checks_;
  const sim::Simulator& simulator = network_.simulator();

  // C5: monotone clock, no pending event in the past.
  const sim::SimTime now = simulator.now();
  if (now < last_now_) {
    out.push_back(format("clock moved backwards: %" PRId64 " ns after %" PRId64
                         " ns",
                         now.nanos(), last_now_.nanos()));
  }
  last_now_ = now;
  if (const auto next = simulator.next_event_time();
      next.has_value() && *next < now) {
    out.push_back(format("pending event at %" PRId64 " ns lies before now=%" PRId64
                         " ns",
                         next->nanos(), now.nanos()));
  }

  // Per-link sweep feeding C1-C4.  Violation messages carry the sim-time
  // and the node's name so a failure in a 10k-node run is attributable
  // without a debugger.
  std::uint64_t accepted = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t link_delivered = 0;
  for (sim::NodeId id = 0; id < static_cast<sim::NodeId>(network_.node_count());
       ++id) {
    const char* name = network_.node(id).name().c_str();
    for (std::size_t port = 0; port < network_.link_count(id); ++port) {
      const Link& link = network_.link(id, static_cast<int>(port));
      const DropTailQueue& queue = link.queue();
      accepted += queue.accepted();
      queue_drops += queue.drops();
      link_delivered += link.packets_delivered();

      if (queue.accepted() < link.packets_delivered()) {
        out.push_back(format("[t=%.9fs] link %s(#%d):%zu delivered %" PRIu64
                             " packets but only accepted %" PRIu64,
                             now.to_seconds(), name, id, port,
                             link.packets_delivered(), queue.accepted()));
      }
      const std::int64_t bytes = queue.byte_length();
      if (bytes < 0) {
        out.push_back(format("[t=%.9fs] link %s(#%d):%zu queue holds negative "
                             "bytes (%" PRId64 ")",
                             now.to_seconds(), name, id, port, bytes));
      }
      if (queue.packet_length() == 0 && bytes != 0) {
        out.push_back(format("[t=%.9fs] link %s(#%d):%zu queue is empty but "
                             "byte ledger says %" PRId64,
                             now.to_seconds(), name, id, port, bytes));
      }
      if (options_.strict) {
        const std::int64_t recount = queue.recount_bytes();
        if (recount != bytes) {
          out.push_back(format("[t=%.9fs] link %s(#%d):%zu byte ledger %" PRId64
                               " != recounted %" PRId64,
                               now.to_seconds(), name, id, port, bytes,
                               recount));
        }
      }
    }
  }

  const Network::Counters& c = network_.counters();
  if (c.transmitted != accepted + queue_drops) {
    out.push_back(format("[t=%.9fs] transmitted %" PRIu64 " != accepted %"
                         PRIu64 " + queue drops %" PRIu64,
                         now.to_seconds(), c.transmitted, accepted,
                         queue_drops));
  }
  if (c.delivered != link_delivered) {
    out.push_back(format("[t=%.9fs] network delivered %" PRIu64
                         " != per-link sum %" PRIu64,
                         now.to_seconds(), c.delivered, link_delivered));
  }
  const std::uint64_t in_flight =
      accepted >= link_delivered ? accepted - link_delivered : 0;
  if (c.transmitted != c.delivered + queue_drops + in_flight) {
    out.push_back(format("[t=%.9fs] conservation: transmitted %" PRIu64
                         " != delivered %" PRIu64 " + queue drops %" PRIu64
                         " + in-flight %" PRIu64,
                         now.to_seconds(), c.transmitted, c.delivered,
                         queue_drops, in_flight));
  }
  if (require_quiescent && in_flight != 0) {
    out.push_back(format("[t=%.9fs] %" PRIu64
                         " packets still in flight in a quiescent network",
                         now.to_seconds(), in_flight));
  }
}

std::vector<std::string> InvariantChecker::check() {
  std::vector<std::string> out;
  check_into(out, /*require_quiescent=*/false);
  return out;
}

std::vector<std::string> InvariantChecker::check_quiescent() {
  std::vector<std::string> out;
  check_into(out, /*require_quiescent=*/true);
  return out;
}

void InvariantChecker::expect_ok() {
  const std::vector<std::string> violations = check();
  for (const std::string& v : violations) {
    std::fprintf(stderr, "invariant violation: %s\n", v.c_str());
  }
  if (!violations.empty()) {
    // When a trace::Tracer is attached its flight recorder holds the last-N
    // trace events — the moments leading up to the violation.  Dump them
    // before aborting; without a tracer this degrades to a hint.
    std::string tail;
    if (network_.simulator().dump_flight(tail)) {
      std::fprintf(stderr, "%s", tail.c_str());
    } else {
      std::fprintf(stderr,
                   "(no flight recorder attached; run with tracing enabled "
                   "to capture the events leading up to the violation)\n");
    }
  }
  HBP_ASSERT_MSG(violations.empty(), "network invariant audit failed");
}

void InvariantChecker::watch(sim::SimTime interval) {
  sim::Simulator& simulator = network_.simulator();
  simulator.after(
      interval,
      [this, interval] {
        expect_ok();
        if (network_.simulator().events_pending() > 0) watch(interval);
      },
      "net.audit.watch");
}

}  // namespace hbp::net
