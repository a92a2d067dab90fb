#include "telemetry/report.hpp"

#include <cstdio>

#include "telemetry/json.hpp"
#include "util/assert.hpp"
#include "util/sha256.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace hbp::telemetry {

void RunManifest::set(std::string key, std::string value) {
  config.push_back(Field{std::move(key), std::move(value), /*quoted=*/true});
}

void RunManifest::set_int(std::string key, std::int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
  config.push_back(Field{std::move(key), buf, /*quoted=*/false});
}

void RunManifest::set_double(std::string key, double value) {
  config.push_back(
      Field{std::move(key), JsonWriter::format_double(value), /*quoted=*/false});
}

void RunManifest::set_bool(std::string key, bool value) {
  config.push_back(Field{std::move(key), value ? "true" : "false",
                         /*quoted=*/false});
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void emit_manifest(JsonWriter& json, const RunManifest& manifest) {
  json.key("manifest").begin_object();
  json.kv("name", manifest.name);
  json.kv("seed", manifest.seed);
  json.kv("trace_digest", hex64(manifest.trace_digest));
  json.kv("events_executed", manifest.events_executed);
  json.kv("sim_seconds", manifest.sim_seconds);
  json.key("config").begin_object();
  for (const RunManifest::Field& f : manifest.config) {
    json.key(f.key);
    if (f.quoted) {
      json.value(f.rendered);
    } else {
      json.raw(f.rendered);
    }
  }
  json.end_object();
  json.end_object();
}

void emit_metrics(JsonWriter& json, const Registry& registry) {
  json.key("metrics").begin_object();
  registry.visit([&json](const std::string& name, const Counter* counter,
                         const Gauge* gauge, const Log2Histogram* histogram,
                         const TimeSeries* series) {
    json.key(name).begin_object();
    if (counter != nullptr) {
      json.kv("type", "counter");
      json.kv("value", counter->value());
    } else if (gauge != nullptr) {
      json.kv("type", "gauge");
      json.kv("value", gauge->value());
    } else if (histogram != nullptr) {
      json.kv("type", "histogram");
      json.kv("count", histogram->count());
      json.kv("sum", histogram->sum());
      json.kv("min", histogram->min());
      json.kv("max", histogram->max());
      json.kv("mean", histogram->mean());
      json.kv("p50", histogram->quantile(0.5));
      json.kv("p99", histogram->quantile(0.99));
      json.key("buckets").begin_array();
      for (std::size_t b = 0; b < Log2Histogram::kBuckets; ++b) {
        if (histogram->bucket_count(b) == 0) continue;
        json.begin_object();
        json.kv("lo", Log2Histogram::bucket_lo(b));
        json.kv("hi", Log2Histogram::bucket_hi(b));
        json.kv("count", histogram->bucket_count(b));
        json.end_object();
      }
      json.end_array();
    } else if (series != nullptr) {
      json.kv("type", "time_series");
      json.kv("interval_seconds", series->interval().to_seconds());
      json.kv("mode", "sum");  // all series sum; the schema keeps the key
      json.key("values").begin_array();
      for (const double v : series->values()) json.value(v);
      json.end_array();
    }
    json.end_object();
  });
  json.end_object();
}

void emit_perf(JsonWriter& json, const PerfStats& perf) {
  json.key("perf").begin_object();
  json.kv("sha256_kernel", util::sha256_kernel());
  json.kv("wall_seconds", perf.wall_seconds);
  json.kv("events_executed", perf.events_executed);
  json.kv("events_per_sec", perf.events_per_sec());
  if (perf.sim_seconds > 0.0) {
    json.kv("wall_per_sim_second", perf.wall_seconds / perf.sim_seconds);
  }
  json.kv("peak_rss_bytes", perf.peak_rss_bytes);
  if (perf.peak_queue_depth > 0) {
    json.kv("peak_event_queue_depth",
            static_cast<std::uint64_t>(perf.peak_queue_depth));
  }
  if (!perf.event_types.empty()) {
    json.key("event_types").begin_object();
    for (const LoopProfiler::TypeStats& s : perf.event_types) {
      json.key(s.label).begin_object();
      json.kv("count", s.count);
      json.kv("wall_seconds", static_cast<double>(s.wall_ns) * 1e-9);
      json.end_object();
    }
    json.end_object();
  }
  json.end_object();
}

}  // namespace

std::string render_run_report(const RunManifest& manifest,
                              const Registry* registry, const PerfStats* perf) {
  JsonWriter json;
  json.begin_object();
  json.kv("schema", "hbp-run-report/1");
  emit_manifest(json, manifest);
  if (registry != nullptr) emit_metrics(json, *registry);
  if (perf != nullptr) emit_perf(json, *perf);
  json.end_object();
  std::string out = json.str();
  out += '\n';
  return out;
}

void write_run_report(const std::string& path, const RunManifest& manifest,
                      const Registry* registry, const PerfStats* perf) {
  write_file_or_die(path, render_run_report(manifest, registry, perf));
}

std::string render_bench_record(const std::string& name,
                                const std::vector<BenchCounter>& counters,
                                const Registry* metrics, const PerfStats& perf) {
  JsonWriter json;
  json.begin_object();
  json.kv("schema", "hbp-bench/1");
  json.kv("name", name);
  json.key("counters").begin_object();
  for (const BenchCounter& c : counters) json.kv(c.key, c.value);
  json.end_object();
  if (metrics != nullptr) emit_metrics(json, *metrics);
  emit_perf(json, perf);
  json.end_object();
  std::string out = json.str();
  out += '\n';
  return out;
}

void write_bench_record(const std::string& path, const std::string& name,
                        const std::vector<BenchCounter>& counters,
                        const Registry* metrics, const PerfStats& perf) {
  write_file_or_die(path, render_bench_record(name, counters, metrics, perf));
}

std::string render_timeseries_csv(const Registry& registry) {
  std::string out = "series,bin_start_seconds,value\n";
  registry.visit([&out](const std::string& name, const Counter*, const Gauge*,
                        const Log2Histogram*, const TimeSeries* series) {
    if (series == nullptr) return;
    const double interval = series->interval().to_seconds();
    const std::vector<double> values = series->values();
    for (std::size_t b = 0; b < values.size(); ++b) {
      char buf[64];
      std::snprintf(buf, sizeof buf, ",%s,%s\n",
                    JsonWriter::format_double(static_cast<double>(b) * interval)
                        .c_str(),
                    JsonWriter::format_double(values[b]).c_str());
      out += name;
      out += buf;
    }
  });
  return out;
}

void write_timeseries_csv(const std::string& path, const Registry& registry) {
  write_file_or_die(path, render_timeseries_csv(registry));
}

void write_file_or_die(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  HBP_ASSERT_MSG(f != nullptr, "cannot open output file for writing");
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  HBP_ASSERT_MSG(written == content.size() && close_rc == 0,
                 "short write to output file");
}

}  // namespace hbp::telemetry
