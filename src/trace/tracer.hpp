// The causal-trace recorder: receives sim::TraceEvent records from the
// Simulator's sink and keeps them in a chunked slab store (full trace,
// exporters iterate it in emission order) — appended amortized, never one
// heap allocation per event, so the enabled path stays cheap and the
// disabled path (no Tracer attached) costs exactly one branch per hook.
// Its tail is the flight recorder that net::InvariantChecker dumps into its
// diagnostic when an audit fails.
//
// A Tracer must outlive its attachment: attach() hands the Simulator
// function_refs bound to *this (see util/function_ref.hpp's lifetime
// contract); detach() — or the destructor — removes them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/trace_event.hpp"

namespace hbp::net {
class Network;
}
namespace hbp::telemetry {
class Registry;
}

namespace hbp::trace {

class Tracer {
 public:
  // Events the flight-recorder dump shows ("last N events").
  static constexpr std::size_t kFlightEvents = 256;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  // Installs this tracer as the simulator's trace sink and flight-dump
  // hook.  `network`, when given, is only used to resolve node names in
  // dumps and exports; it must outlive the tracer's use.
  void attach(sim::Simulator& simulator, const net::Network* network = nullptr);
  void detach();
  bool attached() const { return attached_ != nullptr; }
  const net::Network* network() const { return network_; }

  // The sink itself; also callable directly (tests).
  void record(const sim::TraceEvent& e);

  std::uint64_t verb_count(sim::TraceVerb v) const {
    return by_verb_[static_cast<std::size_t>(v)];
  }

  // Full-trace access, in emission order.
  std::size_t size() const { return size_; }
  const sim::TraceEvent& event(std::size_t i) const { return event_at(i); }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(event_at(i));
  }

  // Appends the last kFlightEvents events, oldest first, as human-readable
  // lines to `out` (the shape the InvariantChecker embeds in its failure
  // diagnostic).
  void dump_flight(std::string& out) const;

  // Registers trace.recorded plus one trace.verb.<name> counter per verb
  // that fired.  Counts are functions of the simulated history only, so
  // they land in the deterministic section of exported telemetry.
  void export_counters(telemetry::Registry& registry) const;

 private:
  static constexpr std::size_t kChunkEvents = 4096;
  using Chunk = std::array<sim::TraceEvent, kChunkEvents>;

  const sim::TraceEvent& event_at(std::size_t i) const {
    return (*chunks_[i / kChunkEvents])[i % kChunkEvents];
  }

  sim::Simulator* attached_ = nullptr;
  const net::Network* network_ = nullptr;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;

  std::array<std::uint64_t, sim::kTraceVerbCount> by_verb_{};
};

}  // namespace hbp::trace
