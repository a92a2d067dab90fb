// The simulated packet.
//
// The protocol-visible header carries a *spoofable* source address; the
// ground-truth fields must never be read by protocol code.  Tests enforce
// this separation by spoofing every attack packet and checking that
// defenses still localise the true origin.
#pragma once

#include <cstdint>

namespace hbp::sim {

using Address = std::uint32_t;   // IPv4-like host address
using NodeId = std::int32_t;     // dense simulator-internal node index
inline constexpr NodeId kInvalidNode = -1;

enum class PacketType : std::uint8_t {
  kData,            // CBR payload (client or attacker)
  kRequest,         // service request (first packet of an exchange)
  kHandshakeSyn,    // connection handshake, client -> server
  kHandshakeAck,    // connection handshake, server -> client
  kCheckpoint,      // roaming-honeypots connection checkpoint
  kProbe,           // benign background probe (false-positive study)
  kTcpSyn,          // TCP-lite connection setup
  kTcpSynAck,
  kTcpData,         // TCP-lite segment (seq/ack fields below)
  kTcpAck,
};

// "No mark": the unset value of the marking fields below and of the HBP
// ingress stamp an AS edge router reports with a diverted packet.
inline constexpr std::int32_t kNoMark = -1;

// Fields are ordered by width (8-byte, 4-byte, then 1-byte) so the struct
// packs into 48 bytes: with a component pointer, a packet closure fills the
// inline buffer of a 64-byte sim::Event.  Ground-truth fields are marked.
struct Packet {
  std::uint64_t uid = 0;           // unique per simulation, for tracing

  // TCP-lite byte offsets.  The endpoints keep 64-bit state and check that
  // each offset they write fits (transport/tcp.cpp).
  std::int32_t seq = 0;            // sequence number
  std::int32_t ack = 0;            // cumulative acknowledgement

  Address src = 0;                 // protocol-visible, possibly spoofed
  Address dst = 0;
  std::int32_t size_bytes = 1000;
  std::int32_t mark = kNoMark;     // path mark (StackPi)

  // Probabilistic packet marking (Savage et al. edge sampling, used by the
  // PPM traceback baseline): an edge (start, end) plus the hop distance
  // from the marking router to the victim.
  std::int32_t edge_start = kNoMark;
  std::int32_t edge_end = kNoMark;
  std::int32_t edge_distance = 0;

  PacketType type = PacketType::kData;
  std::uint8_t ttl = 64;
  bool is_attack = false;  // ground truth: labeled by the traffic generator
};
static_assert(sizeof(Packet) == 48, "Packet has picked up padding");

}  // namespace hbp::sim
