// The simulator's owning event closure.
//
// An Event is one 64-byte cache line: a 56-byte in-place buffer plus the
// operations pointer.  The buffer is sized so the packet path's worst
// closure — a component pointer plus a 48-byte sim::Packet moved into the
// capture — stays inline, and an Event never allocates for targets that
// fit.  Oversized targets (control-plane closures carrying signed messages)
// fall back to one heap allocation; packet-path scheduling sites enforce
// the inline contract with
//
//   static_assert(sim::Event::fits_inline<decltype(fn)>());
//
// so a Packet growing past the buffer is a compile error at the hot site
// rather than a silent allocation regression.
#pragma once

#include "sim/packet.hpp"
#include "util/small_fn.hpp"

namespace hbp::sim {

inline constexpr std::size_t kEventInlineBytes = 56;

using Event = util::SmallFn<kEventInlineBytes>;

static_assert(sizeof(Event) == 64, "an event slot is one 64-byte line");
static_assert(sizeof(void*) + sizeof(Packet) <= kEventInlineBytes,
              "a pointer plus a Packet fits the event's inline buffer");

}  // namespace hbp::sim
