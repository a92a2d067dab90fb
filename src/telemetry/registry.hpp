// Central registry of named telemetry instruments.
//
// Components register instruments by hierarchical dotted name
// ("net.queue.r3:1.drops", "core.hsm.7.requests") and keep the returned
// reference — lookups happen once at wiring time, never on the hot path.
// Instrument addresses are stable for the registry's lifetime.
//
// Iteration order is the lexicographic name order, so every export
// (JSON report, CSV dump) is deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "telemetry/instruments.hpp"

namespace hbp::telemetry {

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Each accessor creates the instrument on first use and returns the
  // existing one afterwards.  Reusing a name with a different type aborts.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Log2Histogram& histogram(std::string_view name);
  TimeSeries& time_series(std::string_view name, sim::SimTime interval);

  std::size_t size() const { return instruments_.size(); }
  bool contains(std::string_view name) const {
    return instruments_.find(name) != instruments_.end();
  }

  // Typed lookups for exporters/tests; null when absent or of another type.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Log2Histogram* find_histogram(std::string_view name) const;
  const TimeSeries* find_time_series(std::string_view name) const;

  // Folds another registry into this one: counters add, gauges take the
  // other's value, histograms and time-series merge.  Used by multi-run
  // bench emitters to aggregate per-run metric trees.
  void merge(const Registry& other);

  // Visits every instrument in name order; exactly one pointer is non-null
  // per call.
  template <typename Fn>
  void visit(Fn&& fn) const {
    for (const auto& [name, slot] : instruments_) {
      fn(name, slot.counter.get(), slot.gauge.get(), slot.histogram.get(),
         slot.series.get());
    }
  }

 private:
  struct Slot {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Log2Histogram> histogram;
    std::unique_ptr<TimeSeries> series;
  };

  std::map<std::string, Slot, std::less<>> instruments_;
};

}  // namespace hbp::telemetry
