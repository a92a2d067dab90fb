#include "scenario/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "telemetry/registry.hpp"

namespace hbp::scenario {
namespace {

sim::Packet data_packet(std::int32_t bytes, bool attack = false) {
  sim::Packet p;
  p.type = sim::PacketType::kData;
  p.size_bytes = bytes;
  p.is_attack = attack;
  return p;
}

TEST(ThroughputMeter, BinsBytesIntoIntervals) {
  sim::Simulator simulator;
  ThroughputMeter meter(simulator, 8e6);  // reference 8 Mb/s => 1 MB/s
  simulator.at(sim::SimTime::seconds(0.5),
               [&] { meter.on_delivery(0, data_packet(500'000)); });
  simulator.at(sim::SimTime::seconds(2.5),
               [&] { meter.on_delivery(0, data_packet(250'000)); });
  simulator.run_all();

  const auto timeline = meter.timeline(4.0);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_DOUBLE_EQ(timeline[0].fraction, 0.5);
  EXPECT_DOUBLE_EQ(timeline[1].fraction, 0.0);
  EXPECT_DOUBLE_EQ(timeline[2].fraction, 0.25);
  EXPECT_DOUBLE_EQ(timeline[3].fraction, 0.0);
}

TEST(ThroughputMeter, IgnoresAttackAndControlPackets) {
  sim::Simulator simulator;
  ThroughputMeter meter(simulator, 8e6);
  meter.on_delivery(0, data_packet(1000, /*attack=*/true));
  sim::Packet probe;
  probe.type = sim::PacketType::kProbe;
  probe.size_bytes = 1000;
  meter.on_delivery(0, probe);
  sim::Packet ack;
  ack.type = sim::PacketType::kHandshakeAck;
  ack.size_bytes = 1000;
  meter.on_delivery(0, ack);
  EXPECT_EQ(meter.total_bytes(), 0u);
}

TEST(ThroughputMeter, MeanFractionOverWindow) {
  sim::Simulator simulator;
  ThroughputMeter meter(simulator, 8e6);
  simulator.at(sim::SimTime::seconds(1.5),
               [&] { meter.on_delivery(0, data_packet(1'000'000)); });
  simulator.at(sim::SimTime::seconds(2.5),
               [&] { meter.on_delivery(0, data_packet(1'000'000)); });
  simulator.run_all();
  // Bins 1 and 2 hold 1 MB each; mean over [1, 3) = 1 MB/s = full.
  EXPECT_DOUBLE_EQ(meter.mean_fraction(1.0, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(meter.mean_fraction(0.0, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(meter.mean_fraction(3.0, 4.0), 0.0);
}

TEST(ScoreCaptures, ScoresAgainstGroundTruth) {
  telemetry::Registry registry;
  const std::vector<core::CaptureEvent> log{
      {10, 1, sim::SimTime::seconds(12)},
      {99, 1, sim::SimTime::seconds(13)},  // innocent!
      {11, 1, sim::SimTime::seconds(20)}};
  const CaptureScore score = score_captures(log, {10, 11, 12}, 0.0, registry);
  EXPECT_EQ(score.captured, 2u);
  EXPECT_EQ(score.false_captures, 1u);
  EXPECT_EQ(registry.find_counter("scenario.capture.captured")->value(), 2u);
  EXPECT_EQ(registry.find_counter("scenario.capture.false")->value(), 1u);
}

TEST(ScoreCaptures, DelaysMeasuredFromAttackStart) {
  telemetry::Registry registry;
  const std::vector<core::CaptureEvent> log{
      {1, 5, sim::SimTime::seconds(15)}, {2, 5, sim::SimTime::seconds(25)}};
  const CaptureScore score = score_captures(log, {1, 2}, 5.0, registry);
  EXPECT_DOUBLE_EQ(score.mean_delay, 15.0);
  EXPECT_DOUBLE_EQ(score.max_delay, 20.0);
  const auto* delay_ms = registry.find_histogram("scenario.capture.delay_ms");
  ASSERT_NE(delay_ms, nullptr);
  EXPECT_EQ(delay_ms->count(), 2u);
  EXPECT_EQ(delay_ms->max(), 20'000u);
}

TEST(ScoreCaptures, NoCapturesSentinel) {
  // Innocent captures alone leave the delays at the -1 sentinel, and the
  // instruments are registered even when nothing was captured.
  telemetry::Registry registry;
  const std::vector<core::CaptureEvent> log{{7, 1, sim::SimTime::seconds(3)}};
  const CaptureScore score = score_captures(log, {1}, 0.0, registry);
  EXPECT_EQ(score.captured, 0u);
  EXPECT_DOUBLE_EQ(score.mean_delay, -1.0);
  EXPECT_DOUBLE_EQ(score.max_delay, -1.0);
  const CaptureScore empty = score_captures({}, {1}, 0.0, registry);
  EXPECT_EQ(empty.false_captures, 0u);
  EXPECT_DOUBLE_EQ(empty.mean_delay, -1.0);
  EXPECT_EQ(registry.find_histogram("scenario.capture.delay_ms")->count(), 0u);
}

}  // namespace
}  // namespace hbp::scenario
