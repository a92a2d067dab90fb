// Pending-event set for the discrete-event engine.
//
// Events fire in (time, insertion sequence) order, which the golden
// regression tests pin through the run's trace digest.  The simulator never
// schedules into the past, so the pending set is a monotone priority queue,
// served here by a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990)
// on the 63-bit nanosecond key: no comparison tree, amortised O(log C) per
// event.  Bucket b > 0 holds the records whose key first differs from the
// last extracted key `last_` at bit b-1; bucket 0 holds key == last_ in
// insertion order, and an occupancy mask finds the lowest non-empty bucket
// with one count-trailing-zeros.  Records of equal key always share a
// bucket and keep their insertion order through every relink, so the pop
// order is exactly (time, seq) without storing seq.
//
// Event closures themselves never move through the ordering structure: they
// are built in place in a slab of recycled 64-byte slots, and leave it once,
// when popped.  Each bucket is an intrusive doubly-linked list through a
// 16-byte node array parallel to the slab, so cancel unlinks in O(1) and
// the queue allocates only when the slab grows.  Ids carry a per-slot
// generation so stale ids are rejected in O(1).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace hbp::sim {

using EventId = std::uint64_t;

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Returns an id usable with cancel().  `at` must not be negative.  `fn` is
  // a void() callable, built once directly in its slab slot (an lvalue is
  // copied, an rvalue moved), or a non-empty Event, which is moved in.
  // `label` is an optional static string naming the event type for the loop
  // profiler (scheduling sites pass string literals; the queue only stores
  // the pointer).
  template <typename F>
  EventId push(SimTime at, F&& fn, const char* label = nullptr) {
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, Event>) {
      HBP_ASSERT_MSG(static_cast<bool>(fn), "cannot schedule an empty event");
    }
    HBP_ASSERT_MSG(at >= SimTime::zero(), "cannot schedule before time zero");
    const std::uint32_t idx = acquire_slot();
    slots_[idx].emplace(std::forward<F>(fn));
    return enqueue(at, idx, label);
  }

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Time of the earliest live event; queue must be non-empty.
  SimTime next_time() const;

  struct PoppedEvent {
    SimTime at;
    Event fn;
    const char* label;  // as passed to push(); may be null
  };

  // Pops and returns the earliest live event.
  PoppedEvent pop();

  // Cancels a pending event, unlinking its record, destroying its closure
  // and recycling its slot immediately; cancelling an already-fired or
  // unknown id is a no-op and returns false.
  bool cancel(EventId id);

  // --- bounded-memory introspection (regression tests) ---

  // Slots ever created; bounded by the peak number of concurrently pending
  // events (slots recycle through a free list, never accumulate).
  std::size_t slot_capacity() const { return slots_.size(); }

 private:
  // Ordering record of slot i, at nodes_[i]: the key plus the links of the
  // bucket list the record sits in.
  struct Node {
    std::uint64_t key;
    std::uint32_t next;
    std::uint32_t prev;
  };
  static_assert(sizeof(Node) == 16);

  static constexpr std::uint32_t kNil = 0xffffffffu;

  // Keys are non-negative int64 nanoseconds, so they differ from last_ at
  // bit 62 at most and 64 buckets cover them; the lowest bucket is 0.
  struct Bucket {
    std::uint64_t min = 0;  // lower bound of the keys inside
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  static constexpr std::size_t kBuckets = 64;

  // Per-slot bookkeeping, parallel to slots_ so that a slot is a bare
  // 64-byte Event.  A slot is occupied while its closure is non-empty; ids
  // name it together with its generation.
  struct SlotMeta {
    const char* label = nullptr;
    std::uint32_t gen = 0;        // bumped on every free
    std::uint32_t next_free = 0;  // free-list link
  };

  std::size_t bucket_of(std::uint64_t key) const {
    return static_cast<std::size_t>(std::bit_width(key ^ last_));
  }

  std::uint32_t acquire_slot();
  // Records a filled slot in the ordering structure.
  EventId enqueue(SimTime at, std::uint32_t idx, const char* label);
  void release_slot(std::uint32_t idx);

  // Appends record `idx` to bucket `b`; removes it from there.
  void link(std::uint32_t idx, std::size_t b) const;
  void unlink(std::uint32_t idx, std::size_t b) const;
  // Links the chain starting at `idx` (through `next`) into the buckets
  // its keys fall in relative to the current last_.
  void relink(std::uint32_t idx) const;
  // Refills bucket 0 from the lowest non-empty bucket; queue non-empty.
  void refill() const;
  // Moves last_ down to `key` (a push below it) and relinks every record.
  void rebase(std::uint64_t key);

  std::vector<Event> slots_;
  std::vector<SlotMeta> meta_;
  std::uint32_t free_head_ = kNil;
  std::size_t live_count_ = 0;

  // Ordering state.  next_time() refills bucket 0, which only regroups
  // records, so it is mutable for const peeks.
  mutable std::vector<Node> nodes_;
  mutable std::array<Bucket, kBuckets> buckets_{};
  mutable std::uint64_t occupied_ = 0;  // bit b set iff bucket b non-empty
  mutable std::uint64_t last_ = 0;      // no pending key is below it
};

}  // namespace hbp::sim
