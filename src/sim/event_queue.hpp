// Pending-event set for the discrete-event engine.
//
// A binary min-heap of 24-byte index records keyed on (time, insertion
// sequence): events fire in that total order, which the golden regression
// tests pin through the run's trace digest.
//
// Event closures themselves never move through the ordering structure: they
// are built in place in a slab of recycled 64-byte slots addressed by the
// index records, and leave it once, when popped.  Ids
// carry a per-slot generation so stale ids and stale index records are
// rejected in O(1).  Steady-state push/pop/cancel performs zero heap
// allocations once the slab and the ordering structure have reached their
// peak size.
#pragma once

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

  // Returns an id usable with cancel().  `fn` is a void() callable, built
  // once directly in its slab slot (an lvalue is copied, an rvalue moved),
  // or a non-empty Event, which is moved in.  `label` is an optional static
  // string naming the event type for the loop profiler (scheduling sites
  // pass string literals; the queue only stores the pointer).
  template <typename F>
  EventId push(SimTime at, F&& fn, const char* label = nullptr) {
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, Event>) {
      HBP_ASSERT_MSG(static_cast<bool>(fn), "cannot schedule an empty event");
    }
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

  // Cancels a pending event, destroying its closure and recycling its slot
  // immediately; cancelling an already-fired or unknown id is a no-op and
  // returns false.
  bool cancel(EventId id);

  // --- bounded-memory introspection (regression tests) ---

  // Slots ever created; bounded by the peak number of concurrently pending
  // events (slots recycle through a free list, never accumulate).
  std::size_t slot_capacity() const { return slots_.size(); }
  // Index records still inside the heap, live + stale.  Stale records (from
  // cancellations) are dropped when they surface and compacted away
  // whenever they outnumber the live ones.
  std::size_t backlog_items() const { return heap_.size(); }
  std::size_t stale_items() const { return stale_count_; }

 private:
  // 24-byte ordering record; the closure stays in the slab.
  struct Item {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    bool operator<(const Item& o) const {
      if (at_ns != o.at_ns) return at_ns < o.at_ns;
      return seq < o.seq;
    }
    bool operator>(const Item& o) const { return o < *this; }
  };

  // Per-slot bookkeeping, parallel to slots_ so that a slot is a bare
  // 64-byte Event.  A slot is occupied while its closure is non-empty; ids
  // and ordering records name it together with its generation.
  struct SlotMeta {
    const char* label = nullptr;
    std::uint32_t gen = 0;        // bumped on every free
    std::uint32_t next_free = 0;  // free-list link
  };

  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  bool live(std::uint32_t slot, std::uint32_t gen) const {
    return meta_[slot].gen == gen && static_cast<bool>(slots_[slot]);
  }

  std::uint32_t acquire_slot();
  // Records a filled slot in the ordering structure.
  EventId enqueue(SimTime at, std::uint32_t idx, const char* label);
  void release_slot(std::uint32_t idx);
  void maybe_compact();

  // Drops stale records from the top of the heap.
  void prune_top() const;

  std::vector<Event> slots_;
  std::vector<SlotMeta> meta_;
  std::uint32_t free_head_ = kNoFree;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  mutable std::size_t stale_count_ = 0;

  mutable std::vector<Item> heap_;
};

}  // namespace hbp::sim
