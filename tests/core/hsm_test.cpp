// HSM session lifecycle driven through the authenticated message entry
// point: correctly MAC'd requests open sessions, cancels close them (within
// their epoch), and every forged or mis-keyed message is rejected and
// counted.
#include "core/hsm.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/defense.hpp"
#include "honeypot/schedule.hpp"
#include "net/control_plane.hpp"
#include "net/network.hpp"
#include "topo/string_topo.hpp"
#include "util/sha256.hpp"

namespace hbp::core {
namespace {

struct HsmFixture : public ::testing::Test {
  void SetUp() override {
    topo::StringParams sp;
    sp.hops = 4;
    topo = topo::build_string(network, sp);
    network.compute_routes();

    chain = std::make_shared<honeypot::HashChain>(util::Sha256::hash("hsm"),
                                                  512);
    schedule = std::make_unique<honeypot::BernoulliSchedule>(
        chain, 0.5, sim::SimTime::seconds(5));
    pool = std::make_unique<honeypot::ServerPool>(
        simulator, network, *schedule, std::vector{topo.server},
        std::vector{topo.server_addr}, store, honeypot::ServerPoolParams{});
    control = std::make_unique<net::ControlPlane>(simulator,
                                                  net::ControlPlane::Params{});
    // Default params: master_secret = all zeros — the local KeyStore below
    // derives the same keys the defense uses.
    defense = std::make_unique<HbpDefense>(simulator, network, *control, *pool,
                                           topo.as_map, HbpParams{});
    defense->start();
  }

  HoneypotRequest make_request(net::AsId from, net::AsId to) const {
    HoneypotRequest m;
    m.dst = topo.server_addr;
    m.epoch = 1;
    m.window.start = sim::SimTime::zero();
    m.window.end = sim::SimTime::seconds(100);
    m.from_as = from;
    m.to_as = to;
    return m;
  }

  HoneypotCancel make_cancel(net::AsId from, net::AsId to) const {
    HoneypotCancel c;
    c.dst = topo.server_addr;
    c.epoch = 1;
    c.from_as = from;
    c.to_as = to;
    return c;
  }

  sim::Simulator simulator;
  net::Network network{simulator};
  topo::StringTopo topo;
  std::shared_ptr<honeypot::HashChain> chain;
  std::unique_ptr<honeypot::BernoulliSchedule> schedule;
  honeypot::CheckpointStore store;
  std::unique_ptr<honeypot::ServerPool> pool;
  std::unique_ptr<net::ControlPlane> control;
  std::unique_ptr<HbpDefense> defense;
  KeyStore keys{util::Digest{}};  // same master secret as the defense
};

TEST_F(HsmFixture, AuthenticRequestOpensSession) {
  const net::AsId to = 2;
  HoneypotRequest m = make_request(/*from=*/1, to);
  keys.sign(m, keys.pair_key(1, to));
  defense->deliver(m);

  Hsm* hsm = defense->hsm(to);
  ASSERT_NE(hsm, nullptr);
  EXPECT_TRUE(hsm->session_active(topo.server_addr));
  EXPECT_EQ(hsm->session_count(), 1u);
  EXPECT_EQ(defense->forged_rejected(), 0u);
}

TEST_F(HsmFixture, MessageToUnknownAsIsDropped) {
  // to_as arrives inside the message: out-of-range ids reach no HSM.
  for (const net::AsId to : {net::kNoAs, net::AsId{1000}}) {
    HoneypotRequest m = make_request(/*from=*/1, to);
    keys.sign(m, keys.pair_key(1, to));
    defense->deliver(m);
    HoneypotCancel c = make_cancel(/*from=*/1, to);
    keys.sign(c, keys.pair_key(1, to));
    defense->deliver(c);
  }
  EXPECT_EQ(defense->forged_rejected(), 0u);
  EXPECT_EQ(control->total_messages(), 0u);
}

TEST_F(HsmFixture, GarbageMacRejected) {
  const net::AsId to = 2;
  HoneypotRequest m = make_request(/*from=*/1, to);
  keys.sign(m, keys.pair_key(1, to));
  m.mac[0] ^= 0xff;
  defense->deliver(m);

  EXPECT_EQ(defense->forged_rejected(), 1u);
  EXPECT_FALSE(defense->hsm(to)->session_active(topo.server_addr));
}

TEST_F(HsmFixture, TamperedFieldInvalidatesMac) {
  const net::AsId to = 2;
  HoneypotRequest m = make_request(/*from=*/1, to);
  keys.sign(m, keys.pair_key(1, to));
  m.window.end = sim::SimTime::seconds(10'000);  // stretched after signing
  defense->deliver(m);

  EXPECT_EQ(defense->forged_rejected(), 1u);
  EXPECT_FALSE(defense->hsm(to)->session_active(topo.server_addr));
}

TEST_F(HsmFixture, WrongPairKeyRejected) {
  const net::AsId to = 2;
  HoneypotRequest m = make_request(/*from=*/1, to);
  keys.sign(m, keys.pair_key(2, 3));  // valid MAC under the wrong pair
  defense->deliver(m);

  EXPECT_EQ(defense->forged_rejected(), 1u);
  EXPECT_FALSE(defense->hsm(to)->session_active(topo.server_addr));
}

TEST_F(HsmFixture, ProgressiveDirectRequestUsesServerKey) {
  // Direct requests come straight from the server pool and authenticate
  // under the AS-to-server key, not an AS-pair key.
  const net::AsId to = 3;
  HoneypotRequest m = make_request(topo.server_as, to);
  m.progressive_direct = true;
  keys.sign(m, keys.server_key(to));
  defense->deliver(m);

  EXPECT_EQ(defense->forged_rejected(), 0u);
  EXPECT_TRUE(defense->hsm(to)->session_active(topo.server_addr));

  // The same message signed with a pair key must not pass.
  HoneypotRequest bad = make_request(topo.server_as, 2);
  bad.progressive_direct = true;
  keys.sign(bad, keys.pair_key(topo.server_as, 2));
  defense->deliver(bad);
  EXPECT_EQ(defense->forged_rejected(), 1u);
  EXPECT_FALSE(defense->hsm(2)->session_active(topo.server_addr));
}

TEST_F(HsmFixture, AuthenticCancelClosesSession) {
  const net::AsId to = 2;
  HoneypotRequest m = make_request(/*from=*/1, to);
  keys.sign(m, keys.pair_key(1, to));
  defense->deliver(m);
  ASSERT_TRUE(defense->hsm(to)->session_active(topo.server_addr));

  HoneypotCancel c = make_cancel(/*from=*/1, to);
  keys.sign(c, keys.pair_key(1, to));
  defense->deliver(c);

  EXPECT_FALSE(defense->hsm(to)->session_active(topo.server_addr));
  EXPECT_EQ(defense->hsm(to)->session_count(), 0u);
  EXPECT_EQ(defense->forged_rejected(), 0u);
}

TEST_F(HsmFixture, ForgedCancelLeavesSessionOpen) {
  const net::AsId to = 2;
  HoneypotRequest m = make_request(/*from=*/1, to);
  keys.sign(m, keys.pair_key(1, to));
  defense->deliver(m);

  HoneypotCancel c = make_cancel(/*from=*/1, to);
  keys.sign(c, keys.pair_key(1, to));
  c.mac[5] ^= 0x01;
  defense->deliver(c);

  EXPECT_EQ(defense->forged_rejected(), 1u);
  EXPECT_TRUE(defense->hsm(to)->session_active(topo.server_addr));
}

TEST_F(HsmFixture, ServerCancelUsesServerKey) {
  const net::AsId to = 2;
  HoneypotRequest m = make_request(/*from=*/1, to);
  keys.sign(m, keys.pair_key(1, to));
  defense->deliver(m);

  HoneypotCancel c = make_cancel(topo.server_as, to);
  c.from_server = true;
  keys.sign(c, keys.server_key(to));
  defense->deliver(c);

  EXPECT_FALSE(defense->hsm(to)->session_active(topo.server_addr));
  EXPECT_EQ(defense->forged_rejected(), 0u);
}

TEST_F(HsmFixture, StaleCancelLeavesNewerSessionOpen) {
  // Back-to-back honeypot epochs: the next epoch's direct request can
  // overtake the previous epoch's cancel, which must not tear it down.
  const net::AsId to = 2;
  HoneypotRequest m = make_request(/*from=*/1, to);
  keys.sign(m, keys.pair_key(1, to));
  defense->deliver(m);

  HoneypotRequest direct = make_request(topo.server_as, to);
  direct.epoch = 2;
  direct.progressive_direct = true;
  keys.sign(direct, keys.server_key(to));
  defense->deliver(direct);

  HoneypotCancel c = make_cancel(/*from=*/1, to);  // epoch 1
  keys.sign(c, keys.pair_key(1, to));
  defense->deliver(c);

  EXPECT_TRUE(defense->hsm(to)->session_active(topo.server_addr));
  EXPECT_EQ(defense->forged_rejected(), 0u);
}

TEST_F(HsmFixture, NewerEpochRequestPropagatesUpstreamAgain) {
  // The epoch-1 cancel was lost: the epoch-2 request must start a fresh
  // session whose wave goes upstream again, not reuse the stale one.
  const net::AsId to = 2;
  Hsm* hsm = defense->hsm(to);
  const topo::CrossLink* ingress = nullptr;
  for (const topo::CrossLink& cl : hsm->info().cross_links) {
    if (cl.upstream) ingress = &cl;
  }
  ASSERT_NE(ingress, nullptr);

  for (const std::size_t epoch : {1u, 2u}) {
    HoneypotRequest m = make_request(/*from=*/1, to);
    m.epoch = epoch;
    keys.sign(m, keys.pair_key(1, to));
    defense->deliver(m);
    // A report stamped with the ingress edge router's edge id.
    hsm->on_diverted(ingress->router, ingress->port, topo.server_addr,
                     /*uid=*/0, ingress->edge_id);
    EXPECT_EQ(control->messages_sent("honeypot_request"), epoch);
  }
}

TEST_F(HsmFixture, ReportAuthentication) {
  IntermediateReport r;
  r.as = 2;
  r.dst = topo.server_addr;
  r.epoch = 1;
  r.stamped_at = sim::SimTime::zero();  // "now": the clock has not advanced
  keys.sign(r, keys.server_key(r.as));
  defense->deliver(r);
  EXPECT_EQ(defense->forged_rejected(), 0u);

  r.epoch = 2;  // tampered after signing: stale MAC
  defense->deliver(r);
  EXPECT_EQ(defense->forged_rejected(), 1u);
}

}  // namespace
}  // namespace hbp::core
