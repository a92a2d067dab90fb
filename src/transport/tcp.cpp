#include "transport/tcp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace hbp::transport {

namespace {

// The packet carries TCP-lite byte offsets in 32 bits; the endpoints keep
// 64-bit state and check each offset they put on the wire.
std::int32_t wire_offset(std::int64_t offset) {
  HBP_ASSERT_MSG(
      offset >= 0 && offset <= std::numeric_limits<std::int32_t>::max(),
      "TCP-lite offset does not fit the packet's 32-bit field");
  return static_cast<std::int32_t>(offset);
}

}  // namespace

// ------------------------------------------------------------------ sender

TcpSender::TcpSender(sim::Simulator& simulator, net::Host& host,
                     const TcpParams& params)
    : simulator_(simulator), host_(host), params_(params), rto_(params.initial_rto) {
  host_.set_receiver(net::Host::ReceiveFn::bind<&TcpSender::on_receive>(*this));
}

void TcpSender::connect(sim::Address dst) {
  dst_ = dst;
  established_ = false;
  ++connection_generation_;
  // Migration keeps the byte-stream progress (the checkpointed state) but
  // restarts congestion control from slow start — the Section 5.3 cost.
  snd_nxt_ = snd_una_;
  cwnd_ = params_.initial_cwnd_segments * params_.mss_bytes;
  ssthresh_ = params_.initial_ssthresh_segments * params_.mss_bytes;
  dupacks_ = 0;
  in_recovery_ = false;
  rto_ = params_.initial_rto;
  rtt_sample_valid_ = false;
  if (rto_armed_) {
    simulator_.cancel(rto_event_);
    rto_armed_ = false;
  }
  send_syn();
}

void TcpSender::send_syn() {
  ++handshakes_;
  sim::Packet syn;
  syn.type = sim::PacketType::kTcpSyn;
  syn.src = host_.address();
  syn.dst = dst_;
  syn.size_bytes = 64;
  // Checkpoint resume (Section 4): a migrated connection tells the new
  // server where the stream left off.
  syn.seq = wire_offset(snd_una_);
  host_.send(std::move(syn));
  // Handshake loss recovery rides on the same RTO machinery.
  arm_rto();
}

void TcpSender::on_receive(const sim::Packet& p) {
  if (p.src != dst_) return;  // stale packet from a pre-migration server
  switch (p.type) {
    case sim::PacketType::kTcpSynAck:
      on_syn_ack();
      break;
    case sim::PacketType::kTcpAck:
      on_ack(p.ack);
      break;
    default:
      break;
  }
}

void TcpSender::on_syn_ack() {
  if (established_) return;
  established_ = true;
  if (rto_armed_) {
    simulator_.cancel(rto_event_);
    rto_armed_ = false;
  }
  send_available();
}

void TcpSender::send_available() {
  if (!established_) return;
  const auto window_end =
      snd_una_ + static_cast<std::int64_t>(cwnd_);
  while (snd_nxt_ + params_.mss_bytes <= window_end) {
    send_segment(snd_nxt_);
    // RTT sampling: first new (non-retransmitted) segment in flight.
    if (!rtt_sample_valid_) {
      rtt_seq_ = snd_nxt_;
      rtt_sent_at_ = simulator_.now();
      rtt_sample_valid_ = true;
    }
    snd_nxt_ += params_.mss_bytes;
  }
  if (snd_nxt_ > snd_una_) arm_rto();
}

void TcpSender::send_segment(std::int64_t seq) {
  sim::Packet p;
  p.type = sim::PacketType::kTcpData;
  p.src = host_.address();
  p.dst = dst_;
  p.size_bytes = params_.mss_bytes;
  p.seq = wire_offset(seq);
  host_.send(std::move(p));
}

void TcpSender::update_rtt(double sample_s) {
  if (!have_rtt_) {
    srtt_ = sample_s;
    rttvar_ = sample_s / 2.0;
    have_rtt_ = true;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample_s);
    srtt_ = 0.875 * srtt_ + 0.125 * sample_s;
  }
  const double rto_s =
      std::clamp(srtt_ + 4.0 * rttvar_, params_.min_rto.to_seconds(),
                 params_.max_rto.to_seconds());
  rto_ = sim::SimTime::seconds(rto_s);
}

void TcpSender::on_ack(std::int64_t ack) {
  if (!established_) return;

  if (ack > snd_una_) {
    // New data acknowledged.
    if (rtt_sample_valid_ && ack > rtt_seq_) {
      update_rtt((simulator_.now() - rtt_sent_at_).to_seconds());
      rtt_sample_valid_ = false;
    }
    snd_una_ = ack;
    dupacks_ = 0;
    if (in_recovery_ && ack >= recovery_point_) {
      in_recovery_ = false;
    }
    if (!in_recovery_) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += params_.mss_bytes;  // slow start
      } else {
        cwnd_ += static_cast<double>(params_.mss_bytes) * params_.mss_bytes /
                 cwnd_;  // congestion avoidance
      }
    }
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    if (rto_armed_) {
      simulator_.cancel(rto_event_);
      rto_armed_ = false;
    }
    send_available();
    return;
  }

  if (ack == snd_una_ && snd_nxt_ > snd_una_) {
    ++dupacks_;
    if (dupacks_ == params_.dupack_threshold && !in_recovery_) {
      // Fast retransmit / recovery (Reno).
      in_recovery_ = true;
      recovery_point_ = snd_nxt_;
      ssthresh_ = std::max(cwnd_ / 2.0,
                           2.0 * params_.mss_bytes);
      cwnd_ = ssthresh_;
      ++retransmits_;
      rtt_sample_valid_ = false;  // Karn: retransmission poisons the sample
      simulator_.emit({simulator_.now(), sim::TraceVerb::kTcpFastRetransmit,
                       host_.id(), 0, 0,
                       static_cast<std::int32_t>(snd_una_ & 0x7fffffff),
                       dupacks_});
      send_segment(snd_una_);
      arm_rto();
    }
  }
}

void TcpSender::arm_rto() {
  if (rto_armed_) {
    simulator_.cancel(rto_event_);
  }
  rto_armed_ = true;
  const auto generation = connection_generation_;
  rto_event_ = simulator_.after(
      rto_,
      [this, generation] {
        if (generation != connection_generation_) return;
        rto_armed_ = false;
        on_rto();
      },
      "transport.tcp.rto");
}

void TcpSender::on_rto() {
  ++timeouts_;
  simulator_.emit({simulator_.now(), sim::TraceVerb::kTcpTimeout, host_.id(),
                   0, 0, static_cast<std::int32_t>(snd_una_ & 0x7fffffff),
                   established_ ? 1 : 0});
  rto_ = sim::SimTime(std::min((rto_ * 2).nanos(), params_.max_rto.nanos()));
  if (!established_) {
    send_syn();
    return;
  }
  // Timeout: back to slow start, retransmit the lost head.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * params_.mss_bytes);
  cwnd_ = params_.mss_bytes;
  dupacks_ = 0;
  in_recovery_ = false;
  snd_nxt_ = snd_una_;
  rtt_sample_valid_ = false;
  ++retransmits_;
  send_segment(snd_una_);
  snd_nxt_ = snd_una_ + params_.mss_bytes;
  arm_rto();
}

// ---------------------------------------------------------------- receiver

TcpReceiver::TcpReceiver(sim::Simulator& simulator, net::Host& host)
    : simulator_(simulator), host_(host) {}

void TcpReceiver::attach() {
  // handle() returns bool; the ref's void trampoline discards it.
  host_.set_receiver(net::Host::ReceiveFn::bind<&TcpReceiver::handle>(*this));
}

bool TcpReceiver::handle(const sim::Packet& p) {
  switch (p.type) {
    case sim::PacketType::kTcpSyn: {
      // Fresh connection or migration re-handshake.  The SYN carries the
      // checkpointed stream position so the new server resumes where the
      // old one stopped.
      auto [it, created] = peers_.try_emplace(p.src);
      if (created) it->second.rcv_nxt = p.seq;
      sim::Packet syn_ack;
      syn_ack.type = sim::PacketType::kTcpSynAck;
      syn_ack.src = host_.address();
      syn_ack.dst = p.src;
      syn_ack.size_bytes = 64;
      host_.send(std::move(syn_ack));
      return true;
    }
    case sim::PacketType::kTcpData: {
      auto& state = peers_[p.src];
      mss_bytes_ = p.size_bytes;
      if (p.seq == state.rcv_nxt) {
        state.rcv_nxt += p.size_bytes;
        state.delivered += p.size_bytes;
        total_delivered_ += p.size_bytes;
        // Drain any buffered continuation.
        auto it = state.out_of_order.begin();
        while (it != state.out_of_order.end() && *it == state.rcv_nxt) {
          state.rcv_nxt += mss_bytes_;
          state.delivered += mss_bytes_;
          total_delivered_ += mss_bytes_;
          it = state.out_of_order.erase(it);
        }
      } else if (p.seq > state.rcv_nxt) {
        state.out_of_order.insert(p.seq);
      }  // else: duplicate of already-delivered data; just re-ack
      send_ack(p.src, state);
      return true;
    }
    default:
      return false;
  }
}

void TcpReceiver::send_ack(sim::Address peer, const PeerState& state) {
  sim::Packet ack;
  ack.type = sim::PacketType::kTcpAck;
  ack.src = host_.address();
  ack.dst = peer;
  ack.size_bytes = 64;
  ack.ack = wire_offset(state.rcv_nxt);
  host_.send(std::move(ack));
}

std::int64_t TcpReceiver::bytes_delivered(sim::Address peer) const {
  const auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.delivered;
}

}  // namespace hbp::transport
