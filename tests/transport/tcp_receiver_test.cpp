// Unit tests of TcpReceiver's reordering/drain logic fed with synthetic
// packets (no sender, minimal network for the ACK return path).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "net/network.hpp"
#include "transport/tcp.hpp"

namespace hbp::transport {
namespace {

struct ReceiverFixture : public ::testing::Test {
  void SetUp() override {
    host = &network.add_node<net::Host>("srv");
    peer = &network.add_node<net::Host>("peer");
    net::LinkParams link;
    network.connect(host->id(), peer->id(), link);
    host->set_address(network.assign_address(host->id()));
    peer->set_address(network.assign_address(peer->id()));
    network.compute_routes();
    receiver = std::make_unique<TcpReceiver>(simulator, *host);
    peer->set_receiver(
        net::Host::ReceiveFn::bind<&ReceiverFixture::on_peer_packet>(*this));
  }

  void on_peer_packet(const sim::Packet& p) {
    if (p.type == sim::PacketType::kTcpAck) last_ack = p.ack;
    if (p.type == sim::PacketType::kTcpSynAck) ++syn_acks;
  }

  sim::Packet data(std::int64_t seq, std::int32_t bytes = 1000) {
    sim::Packet p;
    p.type = sim::PacketType::kTcpData;
    p.src = peer->address();
    p.dst = host->address();
    p.seq = seq;
    p.size_bytes = bytes;
    return p;
  }

  void drain() { simulator.run_until(simulator.now() + sim::SimTime::seconds(1)); }

  sim::Simulator simulator;
  net::Network network{simulator};
  net::Host* host = nullptr;
  net::Host* peer = nullptr;
  std::unique_ptr<TcpReceiver> receiver;
  std::int64_t last_ack = -1;
  int syn_acks = 0;
};

TEST_F(ReceiverFixture, InOrderDeliveryAcksCumulative) {
  receiver->handle(data(0));
  receiver->handle(data(1000));
  drain();
  EXPECT_EQ(last_ack, 2000);
  EXPECT_EQ(receiver->total_bytes_delivered(), 2000);
}

TEST_F(ReceiverFixture, OutOfOrderBufferedAndDrained) {
  receiver->handle(data(2000));
  receiver->handle(data(1000));
  drain();
  EXPECT_EQ(last_ack, 0);  // still waiting for seq 0
  EXPECT_EQ(receiver->total_bytes_delivered(), 0);
  receiver->handle(data(0));
  drain();
  EXPECT_EQ(last_ack, 3000);  // everything drains at once
  EXPECT_EQ(receiver->total_bytes_delivered(), 3000);
}

TEST_F(ReceiverFixture, DuplicateSegmentReAcked) {
  receiver->handle(data(0));
  receiver->handle(data(0));
  drain();
  EXPECT_EQ(last_ack, 1000);
  EXPECT_EQ(receiver->total_bytes_delivered(), 1000);  // not double-counted
}

TEST_F(ReceiverFixture, SynGetsSynAck) {
  sim::Packet syn;
  syn.type = sim::PacketType::kTcpSyn;
  syn.src = peer->address();
  syn.dst = host->address();
  syn.size_bytes = 64;
  EXPECT_TRUE(receiver->handle(syn));
  drain();
  EXPECT_EQ(syn_acks, 1);
}

TEST_F(ReceiverFixture, SynCarriesResumePosition) {
  sim::Packet syn;
  syn.type = sim::PacketType::kTcpSyn;
  syn.src = peer->address();
  syn.dst = host->address();
  syn.seq = 5000;  // checkpointed stream position
  syn.size_bytes = 64;
  receiver->handle(syn);
  receiver->handle(data(5000));
  drain();
  EXPECT_EQ(last_ack, 6000);
}

// The packet carries seq/ack in 32 bits: the largest offset survives a trip
// across the link both ways, and one past it fails the sender's check.
TEST_F(ReceiverFixture, OffsetsUpToInt32MaxRoundTrip) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  receiver->attach();
  sim::Packet syn;
  syn.type = sim::PacketType::kTcpSyn;
  syn.src = peer->address();
  syn.dst = host->address();
  syn.seq = static_cast<std::int32_t>(kMax - 1000);
  syn.size_bytes = 64;
  peer->send(std::move(syn));
  drain();
  EXPECT_EQ(syn_acks, 1);
  peer->send(data(kMax - 1000));
  drain();
  EXPECT_EQ(last_ack, kMax);
  EXPECT_EQ(receiver->total_bytes_delivered(), 1000);
}

TEST_F(ReceiverFixture, OffsetPastInt32MaxDies) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  sim::Packet syn;
  syn.type = sim::PacketType::kTcpSyn;
  syn.src = peer->address();
  syn.seq = static_cast<std::int32_t>(kMax - 499);
  receiver->handle(syn);
  // rcv_nxt reaches kMax + 501, which the ACK cannot carry.
  EXPECT_DEATH(receiver->handle(data(kMax - 499)), "32-bit field");
}

TEST_F(ReceiverFixture, NonTcpPacketsRejected) {
  sim::Packet p;
  p.type = sim::PacketType::kData;
  EXPECT_FALSE(receiver->handle(p));
  p.type = sim::PacketType::kProbe;
  EXPECT_FALSE(receiver->handle(p));
}

TEST_F(ReceiverFixture, PerPeerAccounting) {
  receiver->handle(data(0));
  drain();
  EXPECT_EQ(receiver->bytes_delivered(peer->address()), 1000);
  EXPECT_EQ(receiver->bytes_delivered(0x9999), 0);
}

}  // namespace
}  // namespace hbp::transport
