// Growable circular FIFO that recycles its storage.
//
// std::deque allocates and frees fixed-size chunks as elements stream
// through, which puts one allocation every few packets on the data plane.
// RingBuffer keeps a power-of-two slot array and reuses it: once a queue
// has seen its peak occupancy, push/pop never touch the allocator again.
// Popped slots keep their (moved-from) element until overwritten.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace hbp::util {

template <typename T>
class RingBuffer {
 public:
  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }

  void push_back(T&& value) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  // In FIFO order; Fn(const T&).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < count_; ++i) {
      fn(slots_[(head_ + i) & mask_]);
    }
  }

 private:
  void grow() {
    const std::size_t next = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> bigger(next);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
    mask_ = slots_.size() - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace hbp::util
