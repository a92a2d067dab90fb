// InvariantChecker: a healthy network always passes; queues broken behind
// their accounting (lost packets, corrupted byte ledger) are detected.
#include "net/invariant_checker.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "net/host.hpp"
#include "net/network.hpp"
#include "net/queue.hpp"
#include "net/router.hpp"
#include "sim/simulator.hpp"

namespace hbp::net {

// DropTailQueue's test seam: breaks a live queue's accounting in place.
struct QueueFault {
  // Discards the oldest stored packet without counting a drop: the queue
  // accepted it, but no link will ever deliver it, so the quiescent
  // conservation check (nothing left in flight) must fire.
  static void lose_packet(DropTailQueue& q) {
    q.bytes_ -= q.q_.front().size_bytes;
    q.q_.pop_front();
  }

  // Adds bytes to the ledger that no stored packet holds: once drained the
  // queue still claims them (always-on check), and while packets remain
  // only the strict recount disagrees with the ledger.
  static void skew_ledger(DropTailQueue& q, std::int64_t bytes) {
    q.bytes_ += bytes;
  }
};

namespace {

struct Net {
  static void sink(const sim::Packet&) {}

  explicit Net(const LinkParams& link = {}) : network(simulator) {
    auto& r = network.add_node<Router>("r");
    a = &network.add_node<Host>("a");
    b = &network.add_node<Host>("b");
    network.connect(a->id(), r.id(), link);
    network.connect(r.id(), b->id(), link);
    a->set_address(network.assign_address(a->id()));
    b->set_address(network.assign_address(b->id()));
    network.compute_routes();
    b->set_receiver(sink);
  }

  void blast(int packets) {
    for (int i = 0; i < packets; ++i) {
      sim::Packet p;
      p.dst = b->address();
      p.size_bytes = 1000;
      a->send(std::move(p));
    }
  }

  // The output queue of a's link to the router, where blast() backs up.
  DropTailQueue& first_queue() { return network.link(a->id(), 0).queue(); }

  sim::Simulator simulator;
  Network network;
  Host* a = nullptr;
  Host* b = nullptr;
};

TEST(InvariantChecker, HealthyNetworkPasses) {
  Net net;
  net.blast(50);
  net.simulator.run_all();
  InvariantChecker checker(net.network);
  EXPECT_TRUE(checker.check().empty());
  EXPECT_TRUE(checker.check_quiescent().empty());
  EXPECT_EQ(checker.checks_run(), 2u);
}

TEST(InvariantChecker, MidFlightTrafficPassesNonQuiescentCheck) {
  Net net;
  net.blast(20);
  // Stop while packets are still queued/propagating.
  net.simulator.run_until(sim::SimTime::micros(1500));
  InvariantChecker checker(net.network);
  EXPECT_TRUE(checker.check().empty());
  // But the quiescent variant must notice the in-flight packets.
  EXPECT_FALSE(checker.check_quiescent().empty());
}

TEST(InvariantChecker, OverflowDropsAreConserved) {
  LinkParams slow;
  slow.capacity_bps = 80'000;
  slow.queue_bytes = 2'000;
  Net net(slow);
  net.blast(30);
  net.simulator.run_all();
  ASSERT_GT(net.network.total_queue_drops(), 0u);
  InvariantChecker checker(net.network);
  EXPECT_TRUE(checker.check_quiescent().empty());
}

TEST(InvariantChecker, StrictModePassesOnHealthyQueues) {
  Net net;
  net.blast(20);
  net.simulator.run_until(sim::SimTime::micros(1500));  // some still queued
  InvariantChecker::Options opts;
  opts.strict = true;
  InvariantChecker checker(net.network, opts);
  EXPECT_TRUE(checker.check().empty());
}

TEST(InvariantChecker, DetectsSilentlyLostPackets) {
  Net net;
  net.blast(10);
  ASSERT_GT(net.first_queue().packet_length(), 0u);
  QueueFault::lose_packet(net.first_queue());
  net.simulator.run_all();
  InvariantChecker checker(net.network);
  // The counters still balance; only quiescence exposes the lost packet.
  EXPECT_TRUE(checker.check().empty());
  const auto violations = checker.check_quiescent();
  EXPECT_FALSE(violations.empty());
}

TEST(InvariantChecker, DetectsCorruptByteLedger) {
  Net net;
  net.blast(5);
  QueueFault::skew_ledger(net.first_queue(), 1000);
  net.simulator.run_all();
  // Always-on check: the drained queue still claims bytes.
  InvariantChecker checker(net.network);
  EXPECT_FALSE(checker.check().empty());
}

TEST(InvariantChecker, StrictRecountCatchesLedgerDrift) {
  Net net;
  net.blast(20);
  // Mid-flight: queues are non-empty, so only the strict recount can see
  // that the ledger disagrees with the stored packets.
  net.simulator.run_until(sim::SimTime::micros(2500));
  ASSERT_GT(net.first_queue().packet_length(), 0u);
  QueueFault::skew_ledger(net.first_queue(), 1000);
  InvariantChecker lenient(net.network);
  EXPECT_TRUE(lenient.check().empty());
  InvariantChecker::Options opts;
  opts.strict = true;
  InvariantChecker strict(net.network, opts);
  EXPECT_FALSE(strict.check().empty());
}

TEST(InvariantChecker, ExpectOkAbortsOnViolation) {
  EXPECT_DEATH(
      {
        Net net;
        net.blast(5);
        QueueFault::skew_ledger(net.first_queue(), 1000);
        net.simulator.run_all();
        InvariantChecker checker(net.network);
        checker.expect_ok();
      },
      "HBP_ASSERT");
}

TEST(InvariantChecker, SchedulingIntoThePastAborts) {
  EXPECT_DEATH(
      {
        sim::Simulator simulator;
        simulator.at(sim::SimTime::seconds(1), [] {});
        simulator.run_all();
        simulator.at(sim::SimTime::millis(1), [] {});  // now == 1 s
      },
      "HBP_ASSERT");
}

TEST(InvariantChecker, WatchAuditsPeriodicallyWhileTrafficRuns) {
  Net net;
  // Spread sends over time so events remain pending across several audits.
  for (int burst = 0; burst < 10; ++burst) {
    net.simulator.at(sim::SimTime::millis(10 * burst),
                     [&net] { net.blast(5); });
  }
  InvariantChecker checker(net.network);
  checker.watch(sim::SimTime::millis(5));
  net.simulator.run_all();
  // Audited repeatedly and never kept the drained simulation alive.
  EXPECT_GT(checker.checks_run(), 5u);
  EXPECT_EQ(net.simulator.events_pending(), 0u);
}

}  // namespace
}  // namespace hbp::net
