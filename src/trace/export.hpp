// Trace exporters: Chrome trace-event / Perfetto JSON and long-format CSV.
//
// Both formats are byte-deterministic functions of the recorded events (all
// timestamps are integer sim-nanos formatted with integer math; node names
// come from the Network, itself built deterministically), so two runs of
// the same seed produce byte-identical files — a ctest pins this.
//
// JSON shape: {"traceEvents":[...]} with one instant event ("ph":"i") per
// TraceEvent on pid 1, tid = node+2 (tid 1 is the AS-level control plane),
// plus "thread_name" metadata per node.  Load it in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// CSV shape: the header below, then one row per TraceEvent.  read_csv is
// its inverse, so this module alone owns the layout; examples/trace_query
// reads traces through it.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trace_event.hpp"

namespace hbp::trace {

class Tracer;

void write_chrome_json(const Tracer& tracer, std::ostream& out);

inline constexpr std::string_view kCsvHeader =
    "t_ns,verb,node,node_name,id,cause,a,b";

// kCsvHeader, then one row per event.
void write_csv(const Tracer& tracer, std::ostream& out);

// One CSV row: the event and the node name written beside it ("" for the
// control plane, node -1, and for traces recorded without a Network).
struct CsvRow {
  sim::TraceEvent event{};
  std::string node_name;
};

// Inverse of write_csv: appends every row of `in` to `rows`.  Returns false,
// with a one-line reason in `error`, when the header is not kCsvHeader or a
// row does not parse (the rows before it are kept).
bool read_csv(std::istream& in, std::vector<CsvRow>& rows, std::string& error);

// Dispatches on extension: ".csv" => CSV, anything else => Chrome JSON.
// Returns false if the file could not be opened.
bool write_trace_file(const Tracer& tracer, const std::string& path);

}  // namespace hbp::trace
