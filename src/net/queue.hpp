// A link's output queue: a drop-tail FIFO with a byte-capacity bound.
//
// Pushback's ACC detects congestion from the drop history of the output
// queue, so the queue counts its drops in packets and in bytes.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/packet.hpp"
#include "util/ring_buffer.hpp"

namespace hbp::net {

class DropTailQueue {
 public:
  explicit DropTailQueue(std::int64_t capacity_bytes);

  // Returns false (and counts a drop) if the packet was not accepted.
  bool enqueue(sim::Packet&& p);
  std::optional<sim::Packet> dequeue();

  std::int64_t byte_length() const { return bytes_; }
  std::size_t packet_length() const { return q_.size(); }

  // Recomputes the queued byte total by walking the stored packets (strict
  // invariant audits cross-check it against byte_length()).
  std::int64_t recount_bytes() const;

  std::uint64_t drops() const { return drops_; }
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }
  std::uint64_t accepted() const { return accepted_; }
  // High-water mark of the queued byte total (telemetry exports).
  std::int64_t peak_bytes() const { return peak_bytes_; }

 private:
  // Test seam: the invariant tests break a live queue's accounting through
  // it to show that the checker notices.
  friend struct QueueFault;

  std::int64_t capacity_bytes_;
  std::int64_t bytes_ = 0;
  util::RingBuffer<sim::Packet> q_;
  std::uint64_t drops_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t accepted_ = 0;
  std::int64_t peak_bytes_ = 0;
};

}  // namespace hbp::net
