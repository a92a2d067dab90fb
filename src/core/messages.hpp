// Honeypot back-propagation control messages (Section 5).
//
// Inter-AS honeypot request/cancel messages and the progressive scheme's
// intermediate-AS reports are "encrypted and authenticated using shared
// keys between ASs, in a similar way to securing BGP sessions"
// (Section 5.3).  We authenticate with HMAC-SHA256 over a canonical
// serialization under a per-AS-pair key; forged messages (the DoS-on-the-
// defense vector) are rejected and counted.
//
// Intra-AS hop-by-hop messages use the TTL-255 trick of ACC/Pushback
// (routers only accept from one hop away); in the simulator that property
// is modelled by delivering local messages only between direct neighbors.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "honeypot/schedule.hpp"
#include "net/node.hpp"
#include "sim/packet.hpp"
#include "sim/time.hpp"
#include "util/sha256.hpp"

namespace hbp::core {

using honeypot::SessionWindow;

// Each message carries its accounting kind (`kKind`) for the control plane.
struct HoneypotRequest {
  static constexpr std::string_view kKind = "honeypot_request";
  sim::Address dst = 0;          // the honeypot's address (attack signature)
  std::size_t epoch = 0;
  SessionWindow window;
  net::AsId from_as = net::kNoAs;
  net::AsId to_as = net::kNoAs;
  bool progressive_direct = false;  // sent directly by the server (Section 6)
  // Causal-trace annotation: uid of the packet (honeypot hit or diverted
  // attack packet) whose observation triggered this request.  Not part of
  // the canonical serialization, so it never enters the MAC — it is
  // observability metadata, not protocol state.
  std::uint64_t trace_cause = 0;
  util::Digest mac{};
};

struct HoneypotCancel {
  static constexpr std::string_view kKind = "honeypot_cancel";
  sim::Address dst = 0;
  std::size_t epoch = 0;
  net::AsId from_as = net::kNoAs;
  net::AsId to_as = net::kNoAs;
  bool from_server = false;  // sent by the victim server, not a peer HSM
  util::Digest mac{};
};

// Progressive scheme: "the HSM of A sends its identity A and a time stamp
// to S, which in turn calculates t_A, A's time distance in seconds from S."
struct IntermediateReport {
  static constexpr std::string_view kKind = "intermediate_report";
  net::AsId as = net::kNoAs;
  sim::Address dst = 0;          // which honeypot's session stalled
  std::size_t epoch = 0;
  sim::SimTime stamped_at = sim::SimTime::zero();
  util::Digest mac{};
};

// Canonical serializations covered by the MAC.
std::string serialize(const HoneypotRequest& m);
std::string serialize(const HoneypotCancel& m);
std::string serialize(const IntermediateReport& m);

// Per-AS-pair shared keys derived from a deployment master secret.
class KeyStore {
 public:
  explicit KeyStore(const util::Digest& master) : master_(master) {}

  // Symmetric: key(a, b) == key(b, a).
  util::Digest pair_key(net::AsId a, net::AsId b) const;

  // Key between an AS and the protected server pool (for reports/directs).
  util::Digest server_key(net::AsId a) const;

  // The key policy, one rule per message type: the server's own messages
  // (its activation request, where from == to; progressive direct
  // requests; window-end cancels; intermediate reports) use the server key
  // of the far AS, every HSM-to-HSM message the AS-pair key.
  util::Digest key_for(const HoneypotRequest& m) const;
  util::Digest key_for(const HoneypotCancel& m) const;
  util::Digest key_for(const IntermediateReport& m) const;

  template <typename Message>
  void sign(Message& m, const util::Digest& key) const {
    m.mac = {};
    m.mac = util::hmac_sha256(key, serialize(m));
  }

  template <typename Message>
  bool verify(const Message& m, const util::Digest& key) const {
    Message copy = m;
    copy.mac = {};
    return util::digest_equal(util::hmac_sha256(key, serialize(copy)), m.mac);
  }

 private:
  util::Digest master_;
};

}  // namespace hbp::core
