#include "net/queue.hpp"

#include "util/assert.hpp"

namespace hbp::net {

DropTailQueue::DropTailQueue(std::int64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {
  HBP_ASSERT(capacity_bytes > 0);
}

bool DropTailQueue::enqueue(sim::Packet&& p) {
  if (bytes_ + p.size_bytes > capacity_bytes_) {
    ++drops_;
    dropped_bytes_ += static_cast<std::uint64_t>(p.size_bytes);
    return false;
  }
  bytes_ += p.size_bytes;
  ++accepted_;
  if (bytes_ > peak_bytes_) peak_bytes_ = bytes_;
  q_.push_back(std::move(p));
  return true;
}

std::optional<sim::Packet> DropTailQueue::dequeue() {
  if (q_.empty()) return std::nullopt;
  sim::Packet p = std::move(q_.front());
  q_.pop_front();
  bytes_ -= p.size_bytes;
  HBP_ASSERT(bytes_ >= 0);
  return p;
}

std::int64_t DropTailQueue::recount_bytes() const {
  std::int64_t total = 0;
  q_.for_each([&total](const sim::Packet& p) { total += p.size_bytes; });
  return total;
}

}  // namespace hbp::net
