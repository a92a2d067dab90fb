// Constant-bit-rate source — the workload of the paper's simulations
// ("Both legitimate clients and attackers send CBR traffic destined for the
// servers", Section 8.3).
//
// The destination is re-evaluated per packet through a callback, which is
// how roaming clients retarget the current active server and how attackers
// stay pinned to their chosen victim.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace hbp::traffic {

struct CbrParams {
  double rate_bps = 0.2e6;
  std::int32_t packet_size = 1000;
  sim::SimTime start = sim::SimTime::zero();
  sim::SimTime stop = sim::SimTime::max();
  sim::PacketType type = sim::PacketType::kData;
  // An attack source is a zombie: it labels its packets as attack traffic
  // (ground truth for scoring) and forges a uniformly random, non-zero
  // 32-bit source address on every packet (Section 3), the hardest case for
  // source-address filtering and blacklisting.  Routing never reads the
  // source, so forged values need not belong to any host.  Any other source
  // writes its host's own address.
  bool is_attack = false;
};

class CbrSource {
 public:
  // dst_fn returns the destination for the next packet, or 0 to skip it.
  using DstFn = std::function<sim::Address()>;

  CbrSource(sim::Simulator& simulator, net::Host& host, util::Rng& rng,
            const CbrParams& params, DstFn dst_fn);
  // Cancels the pending tick: its closure points at this source.
  ~CbrSource();

  CbrSource(const CbrSource&) = delete;
  CbrSource& operator=(const CbrSource&) = delete;

  // Schedules the first packet; call once after construction.
  void start();

  // Gate used by on-off/follower wrappers; while paused the clock keeps
  // ticking but no packets are emitted.
  void pause() { paused_ = true; }
  void resume() { paused_ = false; }
  bool paused() const { return paused_; }

  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  sim::SimTime interval() const { return interval_; }

 private:
  void tick();

  sim::Simulator& simulator_;
  net::Host& host_;
  util::Rng& rng_;
  CbrParams params_;
  DstFn dst_fn_;
  sim::SimTime interval_;
  bool paused_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::optional<sim::EventId> next_tick_;
};

}  // namespace hbp::traffic
