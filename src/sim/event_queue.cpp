#include "sim/event_queue.hpp"

#include <algorithm>
#include <functional>

#include "util/assert.hpp"

namespace hbp::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoFree) {
    const std::uint32_t idx = free_head_;
    free_head_ = meta_[idx].next_free;
    return idx;
  }
  HBP_ASSERT_MSG(slots_.size() < 0xffffffffu, "event slab exhausted");
  slots_.emplace_back();
  meta_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t idx) {
  // Destroy the closure now, not when its ordering record surfaces.
  slots_[idx] = nullptr;
  SlotMeta& m = meta_[idx];
  m.label = nullptr;
  ++m.gen;  // invalidates outstanding ids and ordering records
  m.next_free = free_head_;
  free_head_ = idx;
}

EventId EventQueue::enqueue(SimTime at, std::uint32_t idx, const char* label) {
  SlotMeta& m = meta_[idx];
  m.label = label;
  heap_.push_back(Item{at.nanos(), next_seq_++, idx, m.gen});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  ++live_count_;
  return (static_cast<EventId>(m.gen) << 32) | idx;
}

SimTime EventQueue::next_time() const {
  HBP_ASSERT_MSG(!empty(), "next_time() on empty queue");
  prune_top();
  return SimTime(heap_.front().at_ns);
}

EventQueue::PoppedEvent EventQueue::pop() {
  HBP_ASSERT_MSG(!empty(), "pop() on empty queue");
  prune_top();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  const Item it = heap_.back();
  heap_.pop_back();
  PoppedEvent out{SimTime(it.at_ns), std::move(slots_[it.slot]),
                  meta_[it.slot].label};
  release_slot(it.slot);
  --live_count_;
  return out;
}

bool EventQueue::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= slots_.size() || !live(idx, gen)) return false;
  release_slot(idx);
  HBP_ASSERT(live_count_ > 0);
  --live_count_;
  ++stale_count_;  // its ordering record is still in the heap
  maybe_compact();
  return true;
}

void EventQueue::maybe_compact() {
  // Amortised-O(1) bound on stale records: whenever cancellations have left
  // more dead index records than live ones, sweep them in one pass.
  if (stale_count_ <= 64 || stale_count_ <= live_count_) return;
  std::erase_if(heap_,
                [this](const Item& it) { return !live(it.slot, it.gen); });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  stale_count_ = 0;
}

void EventQueue::prune_top() const {
  while (!heap_.empty() && !live(heap_.front().slot, heap_.front().gen)) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    heap_.pop_back();
    --stale_count_;
  }
  HBP_ASSERT(!heap_.empty());
}

}  // namespace hbp::sim
