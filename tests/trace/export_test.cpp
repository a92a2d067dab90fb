#include "trace/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/packet.hpp"
#include "sim/trace_event.hpp"
#include "trace/tracer.hpp"

namespace hbp::trace {
namespace {

// Tracer is non-copyable; tests fill a caller-owned one.
void record_two_events(Tracer& tracer) {
  sim::TraceEvent send;
  send.t = sim::SimTime::micros(1.5);
  send.verb = sim::TraceVerb::kSend;
  send.node = 0;
  send.id = 42;
  send.cause = 0;
  send.a = 3;
  send.b = 1;
  tracer.record(send);
  sim::TraceEvent wave;
  wave.t = sim::SimTime::millis(2);
  wave.verb = sim::TraceVerb::kRequestSend;
  wave.node = sim::kInvalidNode;  // control-plane event, no single node
  wave.id = 42;
  wave.cause = 42;
  wave.a = 1;
  wave.b = 2;
  tracer.record(wave);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(TraceExport, ChromeJsonShape) {
  Tracer tracer;
  record_two_events(tracer);
  std::ostringstream out;
  write_chrome_json(tracer, out);
  const std::string json = out.str();

  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  // Control-plane thread metadata always leads, even without a Network.
  EXPECT_NE(json.find("\"args\":{\"name\":\"control plane\"}"),
            std::string::npos);
  // The instant event: integer-math timestamp 1.5 us => "1.500".
  EXPECT_NE(json.find("{\"name\":\"send\",\"cat\":\"hbp\",\"ph\":\"i\","
                      "\"s\":\"t\",\"pid\":1,\"tid\":2,\"ts\":1.500,"
                      "\"args\":{\"id\":42,\"cause\":0,\"a\":3,\"b\":1}}"),
            std::string::npos);
  // Control-plane events (node -1) land on tid 1.
  EXPECT_NE(json.find("{\"name\":\"honeypot_request\",\"cat\":\"hbp\","
                      "\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,"
                      "\"ts\":2000.000,"
                      "\"args\":{\"id\":42,\"cause\":42,\"a\":1,\"b\":2}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\"}"), std::string::npos);
}

TEST(TraceExport, CsvShape) {
  Tracer tracer;
  record_two_events(tracer);
  std::ostringstream out;
  write_csv(tracer, out);
  const std::string csv = out.str();

  EXPECT_EQ(csv.find("t_ns,verb,node,node_name,id,cause,a,b\n"), 0u);
  EXPECT_NE(csv.find("1500,send,0,,42,0,3,1\n"), std::string::npos);
  EXPECT_NE(csv.find("2000000,honeypot_request,-1,,42,42,1,2\n"),
            std::string::npos);
}

TEST(TraceExport, CsvRoundTrip) {
  Tracer tracer;
  record_two_events(tracer);
  std::stringstream csv;
  write_csv(tracer, csv);

  std::vector<CsvRow> rows;
  std::string error;
  ASSERT_TRUE(read_csv(csv, rows, error)) << error;
  ASSERT_EQ(rows.size(), 2u);
  std::size_t i = 0;
  tracer.for_each([&](const sim::TraceEvent& e) {
    const sim::TraceEvent& back = rows[i].event;
    EXPECT_EQ(back.t, e.t);
    EXPECT_EQ(back.verb, e.verb);
    EXPECT_EQ(back.node, e.node);
    EXPECT_EQ(back.id, e.id);
    EXPECT_EQ(back.cause, e.cause);
    EXPECT_EQ(back.a, e.a);
    EXPECT_EQ(back.b, e.b);
    EXPECT_EQ(rows[i].node_name, "");  // no Network attached
    ++i;
  });
  EXPECT_EQ(rows[1].event.node, sim::kInvalidNode);

  // Node names come back as written, including one on a real node.
  std::istringstream named(std::string(kCsvHeader) +
                           "\n7,capture,5,h5,0,0,12,-1\n");
  rows.clear();
  ASSERT_TRUE(read_csv(named, rows, error)) << error;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].node_name, "h5");
  EXPECT_EQ(rows[0].event.verb, sim::TraceVerb::kCapture);
  EXPECT_EQ(rows[0].event.t.nanos(), 7);

  std::istringstream wrong_header("t_ns,verb,node\n1500,send,0\n");
  rows.clear();
  EXPECT_FALSE(read_csv(wrong_header, rows, error));
  EXPECT_NE(error.find("not a trace CSV"), std::string::npos);
  EXPECT_TRUE(rows.empty());

  std::istringstream bad_verb(std::string(kCsvHeader) +
                              "\n1500,teleport,0,,42,0,3,1\n");
  EXPECT_FALSE(read_csv(bad_verb, rows, error));
  std::istringstream short_row(std::string(kCsvHeader) + "\n1500,send,0\n");
  EXPECT_FALSE(read_csv(short_row, rows, error));
}

TEST(TraceExport, WriteTraceFileDispatchesOnExtension) {
  Tracer tracer;
  record_two_events(tracer);
  const std::string json_path = testing::TempDir() + "hbp_export_test.json";
  const std::string csv_path = testing::TempDir() + "hbp_export_test.csv";

  ASSERT_TRUE(write_trace_file(tracer, json_path));
  ASSERT_TRUE(write_trace_file(tracer, csv_path));
  EXPECT_EQ(slurp(json_path).find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(slurp(csv_path).find("t_ns,verb,"), 0u);

  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(TraceExport, WriteTraceFileReportsUnopenablePath) {
  Tracer tracer;
  record_two_events(tracer);
  EXPECT_FALSE(write_trace_file(tracer, "/nonexistent-dir/trace.json"));
}

}  // namespace
}  // namespace hbp::trace
