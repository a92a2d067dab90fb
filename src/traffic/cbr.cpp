#include "traffic/cbr.hpp"

#include "util/assert.hpp"

namespace hbp::traffic {

CbrSource::CbrSource(sim::Simulator& simulator, net::Host& host, util::Rng& rng,
                     const CbrParams& params, DstFn dst_fn)
    : simulator_(simulator),
      host_(host),
      rng_(rng),
      params_(params),
      dst_fn_(std::move(dst_fn)) {
  HBP_ASSERT(params.rate_bps > 0);
  HBP_ASSERT(params.packet_size > 0);
  interval_ = sim::transmission_time(params.packet_size, params.rate_bps);
}

CbrSource::~CbrSource() {
  if (next_tick_) simulator_.cancel(*next_tick_);
}

void CbrSource::start() {
  // Phase-desynchronise sources: a random fraction of one interval avoids
  // the lock-step bursts a shared start time would create.
  const sim::SimTime phase =
      sim::SimTime::seconds(rng_.uniform() * interval_.to_seconds());
  const sim::SimTime first =
      params_.start > simulator_.now() ? params_.start : simulator_.now();
  next_tick_ =
      simulator_.at(first + phase, [this] { tick(); }, "traffic.cbr.tick");
}

void CbrSource::tick() {
  if (simulator_.now() >= params_.stop) return;

  if (!paused_) {
    const sim::Address dst = dst_fn_();
    if (dst != 0) {
      sim::Packet p;
      p.type = params_.type;
      // Forged sources skip 0, the unassigned-address marker.
      p.src = params_.is_attack
                  ? static_cast<sim::Address>(rng_.below(0xffffffffULL) + 1)
                  : host_.address();
      p.dst = dst;
      p.size_bytes = params_.packet_size;
      p.is_attack = params_.is_attack;
      ++sent_;
      bytes_sent_ += p.size_bytes;
      host_.send(std::move(p));
    }
  }

  next_tick_ =
      simulator_.after(interval_, [this] { tick(); }, "traffic.cbr.tick");
}

}  // namespace hbp::traffic
