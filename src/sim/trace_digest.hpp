// Running fingerprint of a simulation run.
//
// The event loop and the data plane fold (time, record code, node, packet
// uid) records into a 64-bit digest.  Two runs that execute the same events
// in the same order at the same times produce the same digest; any
// divergence — a reordered event, a shifted timestamp, a lost or duplicated
// packet — changes it with overwhelming probability.  The digest is the
// determinism contract the golden regression tests pin down: every future
// optimisation (sharded runners, caching, parallel replication) must keep
// same-seed digests bit-identical.
//
// Two callers feed it.  Simulator::dispatch folds one record per dispatched
// event (fold_dispatch).  Simulator::emit hands every TraceEvent to
// fold(const TraceEvent&), the one place that decides which transitions are
// fingerprinted: enqueue, queue drop, deliver, TTL drop and filter drop.
// The record codes and that verb-to-record mapping are frozen: tests/golden/
// pins digests folded with them.
//
// Folding costs a few arithmetic operations per record, so it stays enabled
// in every build, like the HBP_ASSERT invariants.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "sim/trace_event.hpp"

namespace hbp::sim {

class TraceDigest {
 public:
  // Folds the records `e` contributes; every other verb folds nothing.
  void fold(const TraceEvent& e) {
    switch (e.verb) {
      // A packet offered to a link folds a transmit record, accepted or not;
      // a queue drop then adds its own record at the link's far end.
      case TraceVerb::kEnqueue:
        fold_record(e.t, kTransmit, e.node, e.id);
        break;
      case TraceVerb::kQueueDrop:
        fold_record(e.t, kTransmit, e.node, e.id);
        fold_record(e.t, kQueueDrop, e.a, e.id);
        break;
      case TraceVerb::kDeliver:
        fold_record(e.t, kDeliver, e.node, e.id);
        break;
      case TraceVerb::kTtlDrop:
        fold_record(e.t, kTtlDrop, e.node, e.id);
        break;
      case TraceVerb::kFilterDrop:
        fold_record(e.t, kFilterDrop, e.node, e.id);
        break;
      default:
        break;
    }
  }

  // The event loop's record for its `seq`-th dispatched event.
  void fold_dispatch(SimTime t, std::uint64_t seq) {
    fold_record(t, kDispatch, /*node=*/-1, seq);
  }

  // Absorbs one raw record; order-sensitive.  Model code goes through
  // Simulator::emit instead; this is the primitive the two folds above use.
  void fold_record(SimTime t, std::uint32_t code, NodeId node,
                   std::uint64_t uid) {
    absorb(static_cast<std::uint64_t>(t.nanos()));
    absorb((static_cast<std::uint64_t>(code) << 32) ^
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)));
    absorb(uid);
  }

  std::uint64_t value() const { return mix(state_ ^ records_); }
  std::uint64_t records() const { return records_; }

  void reset() {
    state_ = kSeed;
    records_ = 0;
  }

 private:
  // Record codes, frozen by tests/golden/.
  static constexpr std::uint32_t kDispatch = 1;
  static constexpr std::uint32_t kTransmit = 2;
  static constexpr std::uint32_t kDeliver = 3;
  static constexpr std::uint32_t kQueueDrop = 4;
  static constexpr std::uint32_t kTtlDrop = 5;
  static constexpr std::uint32_t kFilterDrop = 6;

  static constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;

  // SplitMix64 finalizer: full-avalanche 64-bit mix.
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  void absorb(std::uint64_t word) {
    state_ = mix(state_ ^ word);
    ++records_;
  }

  std::uint64_t state_ = kSeed;
  std::uint64_t records_ = 0;
};

}  // namespace hbp::sim
