// Causal trace events: the vocabulary shared by the simulator's trace sink
// and the src/trace subsystem that records and exports them.
//
// Every model transition is described once, as a TraceEvent handed to
// Simulator::emit.  That one call feeds both consumers: the run digest
// (sim/trace_digest.hpp), which fingerprints the data-plane verbs on every
// run and is pinned by the golden tests, and the trace sink, which records
// every verb only when a trace::Tracer is attached.  The digest folds the
// same records whether a sink is attached or not, and hooks neither schedule
// events nor consume randomness — they only describe transitions that
// already happened — so tracing leaves digests bit-identical.
//
// The emit idiom at every hook site is one call:
//
//   simulator.emit({simulator.now(), TraceVerb::kDeliver, node, p.uid,
//                   /*cause=*/0, in_port, -1});
//
// emit is inline, so a call site's constant verb resolves the digest recipe
// at compile time; with no sink attached the trace side costs one branch and
// allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "util/function_ref.hpp"

namespace hbp::sim {

using NodeId = std::int32_t;  // matches sim/packet.hpp

// What happened.  Data-plane verbs carry the packet uid in `id`;
// control-plane verbs carry the uid of the packet that triggered the step
// (the honeypot hit / diverted packet); a divert or capture carries the
// cause of the request that opened its AS's session.
enum class TraceVerb : std::uint8_t {
  // Data plane (src/net, src/transport).
  kSend = 0,        // host injected a packet       a=dst addr, b=type
  kReceive,         // host accepted a packet       a=in_port,  b=type
  kForward,         // router forwarded             a=in_port,  b=out_port
  kEnqueue,         // link queue accepted          a=to_node,  b=to_port
  kDequeue,         // link started serializing     a=to_node,  b=to_port
  kQueueDrop,       // link queue rejected (full)   a=to_node,  b=to_port
  kDeliver,         // link handed packet to node   a=in_port
  kTtlDrop,         // TTL expired at node
  kFilterDrop,      // filter/no-route drop at node
  kDivert,          // HBP divert filter consumed   a=in_port,  b=edge stamp
  kTcpFastRetransmit,  // a=snd_una (low bits), b=dupacks
  kTcpTimeout,         // a=snd_una (low bits), b=1 established, 0 SYN retry
  // Honeypot / HBP control plane (src/honeypot, src/core).
  kWindowStart,     // honeypot window opened       a=server,   b=epoch
  kWindowEnd,       // honeypot window closed       a=server,   b=epoch
  kHoneypotHit,     // packet hit active honeypot   a=server,   b=is_attack
  kActivate,        // hit threshold crossed        a=server,   b=epoch
  kRequestSend,     // HoneypotRequest sent         a=from_as,  b=to_as
  kCancelSend,      // HoneypotCancel sent          a=from_as,  b=to_as
  kDirectRequest,   // progressive direct request   a=to_as,    b=epoch
  kReportSend,      // progressive intermediate rpt a=as,       b=epoch
  kSessionOpen,     // HSM installed a session      a=as,       b=epoch
  kSessionClose,    // HSM tore a session down      a=as,       b=epoch
  kUpstream,        // wave propagated to parent AS a=from_as,  b=to_as
  kIntraTrace,      // intra-AS input debugging     a=in_port,  b=as
  kIngressReached,  // traceback hit ingress router a=in_port,  b=neighbor_as
  kLocalRequest,    // intra-AS local request       a=to_router, b=as
  kCapture,         // attacker host captured       a=dst addr
  // Pushback (src/pushback).
  kPushbackRequest,  // a=to_node, b=depth; id=aggregate
  kPushbackCancel,   // a=to_node;          id=aggregate
  kPushbackLimit,    // rate-limit drop     a=in_port; id=packet, cause=agg
};

inline constexpr std::size_t kTraceVerbCount =
    static_cast<std::size_t>(TraceVerb::kPushbackLimit) + 1;

constexpr const char* verb_name(TraceVerb v) {
  switch (v) {
    case TraceVerb::kSend: return "send";
    case TraceVerb::kReceive: return "receive";
    case TraceVerb::kForward: return "forward";
    case TraceVerb::kEnqueue: return "enqueue";
    case TraceVerb::kDequeue: return "dequeue";
    case TraceVerb::kQueueDrop: return "queue_drop";
    case TraceVerb::kDeliver: return "deliver";
    case TraceVerb::kTtlDrop: return "ttl_drop";
    case TraceVerb::kFilterDrop: return "filter_drop";
    case TraceVerb::kDivert: return "divert";
    case TraceVerb::kTcpFastRetransmit: return "tcp_fast_retransmit";
    case TraceVerb::kTcpTimeout: return "tcp_timeout";
    case TraceVerb::kWindowStart: return "window_start";
    case TraceVerb::kWindowEnd: return "window_end";
    case TraceVerb::kHoneypotHit: return "honeypot_hit";
    case TraceVerb::kActivate: return "hbp_activate";
    case TraceVerb::kRequestSend: return "honeypot_request";
    case TraceVerb::kCancelSend: return "honeypot_cancel";
    case TraceVerb::kDirectRequest: return "direct_request";
    case TraceVerb::kReportSend: return "intermediate_report";
    case TraceVerb::kSessionOpen: return "session_open";
    case TraceVerb::kSessionClose: return "session_close";
    case TraceVerb::kUpstream: return "upstream";
    case TraceVerb::kIntraTrace: return "intra_trace";
    case TraceVerb::kIngressReached: return "ingress_reached";
    case TraceVerb::kLocalRequest: return "local_request";
    case TraceVerb::kCapture: return "capture";
    case TraceVerb::kPushbackRequest: return "pushback_request";
    case TraceVerb::kPushbackCancel: return "pushback_cancel";
    case TraceVerb::kPushbackLimit: return "pushback_limit";
  }
  return "?";
}

// One span event.  Plain aggregate so hook sites can brace-init it; 40 bytes,
// trivially copyable — the recorder stores these in slabs without touching
// the heap per event.
struct TraceEvent {
  SimTime t;             // sim-time of the transition
  TraceVerb verb;
  NodeId node;           // where it happened; kInvalidNode for AS-level events
  std::uint64_t id;      // packet uid, or the wave's triggering uid
  std::uint64_t cause;   // uid of the causing packet (0 = none/root)
  std::int32_t a = -1;   // verb-specific (see enum comments)
  std::int32_t b = -1;
};

// Sink installed on the Simulator by trace::Tracer.  A function_ref keeps
// the Simulator free of any dependency on src/trace and makes the
// disabled-path check a null test.
using TraceSink = util::function_ref<void(const TraceEvent&)>;

// Flight-recorder dump hook: appends a human-readable tail of the last-N
// events to `out` (used by net::InvariantChecker diagnostics).
using TraceDumpFn = util::function_ref<void(std::string&)>;

}  // namespace hbp::sim
