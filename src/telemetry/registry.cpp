#include "telemetry/registry.hpp"

#include "util/assert.hpp"

namespace hbp::telemetry {

Counter& Registry::counter(std::string_view name) {
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    it = instruments_.emplace(std::string(name), Slot{}).first;
    it->second.counter = std::make_unique<Counter>();
  }
  HBP_ASSERT_MSG(it->second.counter != nullptr,
                 "telemetry name already registered with a different type");
  return *it->second.counter;
}

Gauge& Registry::gauge(std::string_view name) {
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    it = instruments_.emplace(std::string(name), Slot{}).first;
    it->second.gauge = std::make_unique<Gauge>();
  }
  HBP_ASSERT_MSG(it->second.gauge != nullptr,
                 "telemetry name already registered with a different type");
  return *it->second.gauge;
}

Log2Histogram& Registry::histogram(std::string_view name) {
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    it = instruments_.emplace(std::string(name), Slot{}).first;
    it->second.histogram = std::make_unique<Log2Histogram>();
  }
  HBP_ASSERT_MSG(it->second.histogram != nullptr,
                 "telemetry name already registered with a different type");
  return *it->second.histogram;
}

TimeSeries& Registry::time_series(std::string_view name,
                                  sim::SimTime interval) {
  auto it = instruments_.find(name);
  if (it == instruments_.end()) {
    it = instruments_.emplace(std::string(name), Slot{}).first;
    it->second.series = std::make_unique<TimeSeries>(interval);
  }
  HBP_ASSERT_MSG(it->second.series != nullptr,
                 "telemetry name already registered with a different type");
  HBP_ASSERT_MSG(it->second.series->interval() == interval,
                 "telemetry time series re-registered with different interval");
  return *it->second.series;
}

const Counter* Registry::find_counter(std::string_view name) const {
  const auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : it->second.counter.get();
}

const Gauge* Registry::find_gauge(std::string_view name) const {
  const auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : it->second.gauge.get();
}

const Log2Histogram* Registry::find_histogram(std::string_view name) const {
  const auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : it->second.histogram.get();
}

const TimeSeries* Registry::find_time_series(std::string_view name) const {
  const auto it = instruments_.find(name);
  return it == instruments_.end() ? nullptr : it->second.series.get();
}

void Registry::merge(const Registry& other) {
  other.visit([this](const std::string& name, const Counter* c, const Gauge* g,
                     const Log2Histogram* h, const TimeSeries* s) {
    if (c != nullptr) {
      counter(name).add(c->value());
    } else if (g != nullptr) {
      gauge(name).set(g->value());
    } else if (h != nullptr) {
      histogram(name).merge(*h);
    } else if (s != nullptr) {
      time_series(name, s->interval()).merge(*s);
    }
  });
}

}  // namespace hbp::telemetry
