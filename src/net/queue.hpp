// Output queues for links: the PacketQueue interface and its drop-tail FIFO.
//
// Pushback's ACC detects congestion from the drop history of the output
// queue, so queues count their drops in packets and in bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "sim/packet.hpp"
#include "util/ring_buffer.hpp"

namespace hbp::net {

class PacketQueue {
 public:
  virtual ~PacketQueue() = default;

  // Returns false (and counts a drop) if the packet was not accepted.
  virtual bool enqueue(sim::Packet&& p) = 0;
  virtual std::optional<sim::Packet> dequeue() = 0;

  virtual std::int64_t byte_length() const = 0;
  virtual std::size_t packet_length() const = 0;

  // Recomputes the queued byte total by walking the stored packets (strict
  // invariant audits cross-check it against byte_length()).  Disciplines
  // that cannot enumerate their contents fall back to byte_length().
  virtual std::int64_t recount_bytes() const { return byte_length(); }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }
  std::uint64_t accepted() const { return accepted_; }
  // High-water mark of the queued byte total (telemetry exports).
  std::int64_t peak_bytes() const { return peak_bytes_; }

 protected:
  void count_drop(const sim::Packet& p) {
    ++drops_;
    dropped_bytes_ += static_cast<std::uint64_t>(p.size_bytes);
  }
  void count_accept() { ++accepted_; }
  void note_occupancy(std::int64_t bytes) {
    if (bytes > peak_bytes_) peak_bytes_ = bytes;
  }

 private:
  std::uint64_t drops_ = 0;
  std::uint64_t dropped_bytes_ = 0;
  std::uint64_t accepted_ = 0;
  std::int64_t peak_bytes_ = 0;
};

// FIFO queue with a byte-capacity bound.
class DropTailQueue final : public PacketQueue {
 public:
  explicit DropTailQueue(std::int64_t capacity_bytes);

  bool enqueue(sim::Packet&& p) override;
  std::optional<sim::Packet> dequeue() override;
  std::int64_t byte_length() const override { return bytes_; }
  std::size_t packet_length() const override { return q_.size(); }
  std::int64_t recount_bytes() const override;

 private:
  std::int64_t capacity_bytes_;
  std::int64_t bytes_ = 0;
  util::RingBuffer<sim::Packet> q_;
};

using QueueFactory = std::function<std::unique_ptr<PacketQueue>()>;

}  // namespace hbp::net
