#include "trace/tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "net/network.hpp"
#include "telemetry/registry.hpp"
#include "util/assert.hpp"

namespace hbp::trace {

Tracer::~Tracer() { detach(); }

void Tracer::attach(sim::Simulator& simulator, const net::Network* network) {
  HBP_ASSERT_MSG(attached_ == nullptr, "Tracer is already attached");
  attached_ = &simulator;
  network_ = network;
  simulator.set_trace_sink(sim::TraceSink::bind<&Tracer::record>(*this));
  simulator.set_flight_dump(sim::TraceDumpFn::bind<&Tracer::dump_flight>(*this));
}

void Tracer::detach() {
  if (attached_ == nullptr) return;
  attached_->set_trace_sink(nullptr);
  attached_->set_flight_dump(nullptr);
  attached_ = nullptr;
}

void Tracer::record(const sim::TraceEvent& e) {
  ++by_verb_[static_cast<std::size_t>(e.verb)];
  if (size_ == chunks_.size() * kChunkEvents) {
    chunks_.push_back(std::make_unique<Chunk>());
  }
  (*chunks_.back())[size_ % kChunkEvents] = e;
  ++size_;
}

void Tracer::dump_flight(std::string& out) const {
  const std::size_t first = size_ - std::min(size_, kFlightEvents);
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "flight recorder (last %zu of %llu events):\n", size_ - first,
                static_cast<unsigned long long>(size_));
  out += buf;
  for (std::size_t i = first; i < size_; ++i) {
    const sim::TraceEvent& e = event_at(i);
    const char* name = "";
    if (network_ != nullptr && e.node >= 0 &&
        static_cast<std::size_t>(e.node) < network_->node_count()) {
      name = network_->node(e.node).name().c_str();
    }
    std::snprintf(buf, sizeof(buf),
                  "  t=%.9fs %-19s node=%d(%s) id=%llu cause=%llu a=%d b=%d\n",
                  e.t.to_seconds(), sim::verb_name(e.verb), e.node, name,
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.cause), e.a, e.b);
    out += buf;
  }
}

void Tracer::export_counters(telemetry::Registry& registry) const {
  registry.counter("trace.recorded").add(size_);
  for (std::size_t v = 0; v < sim::kTraceVerbCount; ++v) {
    if (by_verb_[v] == 0) continue;
    std::string key = "trace.verb.";
    key += sim::verb_name(static_cast<sim::TraceVerb>(v));
    registry.counter(key).add(by_verb_[v]);
  }
}

}  // namespace hbp::trace
