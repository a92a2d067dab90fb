#include "sim/event_queue.hpp"

#include "util/assert.hpp"

namespace hbp::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = meta_[idx].next_free;
    return idx;
  }
  HBP_ASSERT_MSG(slots_.size() < kNil, "event slab exhausted");
  slots_.emplace_back();
  meta_.emplace_back();
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t idx) {
  slots_[idx] = nullptr;
  SlotMeta& m = meta_[idx];
  m.label = nullptr;
  ++m.gen;  // invalidates outstanding ids
  m.next_free = free_head_;
  free_head_ = idx;
}

void EventQueue::link(std::uint32_t idx, std::size_t b) const {
  Node& n = nodes_[idx];
  Bucket& bucket = buckets_[b];
  n.next = kNil;
  n.prev = bucket.tail;
  if (bucket.tail == kNil) {
    bucket.head = idx;
    bucket.min = n.key;
    occupied_ |= std::uint64_t{1} << b;
  } else {
    nodes_[bucket.tail].next = idx;
    if (n.key < bucket.min) bucket.min = n.key;
  }
  bucket.tail = idx;
}

void EventQueue::unlink(std::uint32_t idx, std::size_t b) const {
  const Node& n = nodes_[idx];
  Bucket& bucket = buckets_[b];
  (n.prev == kNil ? bucket.head : nodes_[n.prev].next) = n.next;
  (n.next == kNil ? bucket.tail : nodes_[n.next].prev) = n.prev;
  if (bucket.head == kNil) occupied_ &= ~(std::uint64_t{1} << b);
}

void EventQueue::relink(std::uint32_t idx) const {
  // Equal keys land in one bucket in chain order, so insertion order holds.
  while (idx != kNil) {
    const std::uint32_t next = nodes_[idx].next;
    link(idx, bucket_of(nodes_[idx].key));
    idx = next;
  }
}

void EventQueue::refill() const {
  // The bucket minimum may belong to a cancelled record; as a lower bound
  // it still orders the rest, and bucket 0 just stays empty one more round.
  while ((occupied_ & 1) == 0) {
    const auto b = static_cast<std::size_t>(std::countr_zero(occupied_));
    Bucket& bucket = buckets_[b];
    const std::uint32_t chain = bucket.head;
    bucket.head = bucket.tail = kNil;
    occupied_ &= ~(std::uint64_t{1} << b);
    last_ = bucket.min;
    relink(chain);
  }
}

void EventQueue::rebase(std::uint64_t key) {
  // Chain every bucket in bucket order (equal keys share one bucket), then
  // regroup the chain around the new, lower last_.
  std::uint32_t chain = kNil;
  std::uint32_t chain_tail = kNil;
  for (std::uint64_t rest = occupied_; rest != 0; rest &= rest - 1) {
    Bucket& bucket = buckets_[static_cast<std::size_t>(std::countr_zero(rest))];
    (chain == kNil ? chain : nodes_[chain_tail].next) = bucket.head;
    chain_tail = bucket.tail;
    bucket.head = bucket.tail = kNil;
  }
  occupied_ = 0;
  last_ = key;
  relink(chain);
}

EventId EventQueue::enqueue(SimTime at, std::uint32_t idx, const char* label) {
  SlotMeta& m = meta_[idx];
  m.label = label;
  const auto key = static_cast<std::uint64_t>(at.nanos());
  if (key < last_) rebase(key);
  nodes_[idx].key = key;
  link(idx, bucket_of(key));
  ++live_count_;
  return (static_cast<EventId>(m.gen) << 32) | idx;
}

SimTime EventQueue::next_time() const {
  HBP_ASSERT_MSG(!empty(), "next_time() on empty queue");
  refill();
  return SimTime(static_cast<std::int64_t>(last_));
}

EventQueue::PoppedEvent EventQueue::pop() {
  HBP_ASSERT_MSG(!empty(), "pop() on empty queue");
  refill();
  const std::uint32_t idx = buckets_[0].head;
  unlink(idx, 0);
  PoppedEvent out{SimTime(static_cast<std::int64_t>(last_)),
                  std::move(slots_[idx]), meta_[idx].label};
  release_slot(idx);
  --live_count_;
  return out;
}

bool EventQueue::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= slots_.size() || meta_[idx].gen != gen || !slots_[idx]) {
    return false;
  }
  unlink(idx, bucket_of(nodes_[idx].key));
  release_slot(idx);
  HBP_ASSERT(live_count_ > 0);
  --live_count_;
  return true;
}

}  // namespace hbp::sim
