#include "trace/export.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>

#include "net/network.hpp"
#include "trace/tracer.hpp"

namespace hbp::trace {

namespace {

// tid layout: the control plane (node = -1) renders as tid 1, node k as
// tid k+2; pid is always 1.  Keeps every tid positive, which both Perfetto
// and chrome://tracing require.
int tid_of(sim::NodeId node) { return static_cast<int>(node) + 2; }

const char* node_name(const net::Network* network, sim::NodeId node) {
  if (network == nullptr || node < 0 ||
      static_cast<std::size_t>(node) >= network->node_count()) {
    return "";
  }
  return network->node(node).name().c_str();
}

template <typename Int>
bool parse_int(std::string_view text, Int& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

std::optional<sim::TraceVerb> verb_from_name(std::string_view name) {
  for (std::size_t v = 0; v < sim::kTraceVerbCount; ++v) {
    const auto verb = static_cast<sim::TraceVerb>(v);
    if (name == sim::verb_name(verb)) return verb;
  }
  return std::nullopt;
}

// Splits one data row into its eight fields and parses them.
bool parse_row(std::string_view line, CsvRow& row) {
  std::array<std::string_view, 8> f;
  for (std::size_t i = 0; i + 1 < f.size(); ++i) {
    const std::size_t comma = line.find(',');
    if (comma == std::string_view::npos) return false;
    f[i] = line.substr(0, comma);
    line.remove_prefix(comma + 1);
  }
  f.back() = line;

  std::int64_t t_ns = 0;
  const auto verb = verb_from_name(f[1]);
  sim::TraceEvent& e = row.event;
  if (!parse_int(f[0], t_ns) || !verb || !parse_int(f[2], e.node) ||
      !parse_int(f[4], e.id) || !parse_int(f[5], e.cause) ||
      !parse_int(f[6], e.a) || !parse_int(f[7], e.b)) {
    return false;
  }
  e.t = sim::SimTime(t_ns);
  e.verb = *verb;
  row.node_name = f[3];
  return true;
}

}  // namespace

void write_chrome_json(const Tracer& tracer, std::ostream& out) {
  const net::Network* network = tracer.network();
  out << "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  auto comma = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  comma();
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"control plane\"}}";
  if (network != nullptr) {
    for (std::size_t id = 0; id < network->node_count(); ++id) {
      const sim::NodeId node = static_cast<sim::NodeId>(id);
      comma();
      std::snprintf(buf, sizeof(buf),
                    "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":"
                    "\"thread_name\",\"args\":{\"name\":\"%s (#%d)\"}}",
                    tid_of(node), node_name(network, node), node);
      out << buf;
    }
  }
  tracer.for_each([&](const sim::TraceEvent& e) {
    // ts is microseconds; emit exact micros from integer nanos so the file
    // is byte-stable (no floating-point formatting).
    const long long us = e.t.nanos() / 1000;
    const long long frac = e.t.nanos() % 1000;
    comma();
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"cat\":\"hbp\",\"ph\":\"i\",\"s\":\"t\","
        "\"pid\":1,\"tid\":%d,\"ts\":%lld.%03lld,"
        "\"args\":{\"id\":%llu,\"cause\":%llu,\"a\":%d,\"b\":%d}}",
        sim::verb_name(e.verb), tid_of(e.node), us, frac,
        static_cast<unsigned long long>(e.id),
        static_cast<unsigned long long>(e.cause), e.a, e.b);
    out << buf;
  });
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_csv(const Tracer& tracer, std::ostream& out) {
  const net::Network* network = tracer.network();
  out << kCsvHeader << '\n';
  char buf[256];
  tracer.for_each([&](const sim::TraceEvent& e) {
    std::snprintf(buf, sizeof(buf), "%lld,%s,%d,%s,%llu,%llu,%d,%d\n",
                  static_cast<long long>(e.t.nanos()), sim::verb_name(e.verb),
                  e.node, node_name(network, e.node),
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.cause), e.a, e.b);
    out << buf;
  });
}

bool read_csv(std::istream& in, std::vector<CsvRow>& rows,
              std::string& error) {
  std::string line;
  if (!std::getline(in, line) || line != kCsvHeader) {
    error = "not a trace CSV (header is '" + line + "')";
    return false;
  }
  for (std::size_t number = 2; std::getline(in, line); ++number) {
    CsvRow row;
    if (!parse_row(line, row)) {
      error = "line " + std::to_string(number) + " is not a trace row: '" +
              line + "'";
      return false;
    }
    rows.push_back(std::move(row));
  }
  return true;
}

bool write_trace_file(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path, std::ios::binary);  // binary: byte-stable on any OS
  if (!out) return false;
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    write_csv(tracer, out);
  } else {
    write_chrome_json(tracer, out);
  }
  return static_cast<bool>(out);
}

}  // namespace hbp::trace
