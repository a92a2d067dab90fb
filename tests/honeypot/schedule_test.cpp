#include "honeypot/schedule.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "util/rng.hpp"

namespace hbp::honeypot {
namespace {

std::shared_ptr<HashChain> chain() {
  return std::make_shared<HashChain>(util::Sha256::hash("sched"), 512);
}

// The per-epoch seed, derived here independently of the schedule: the first
// 8 bytes of K_i, big-endian, with epochs past the chain wrapping around.
std::uint64_t reference_seed(const HashChain& c, std::size_t epoch) {
  const util::Digest& key = c.key(((epoch - 1) % c.length()) + 1);
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < 8; ++i) s = (s << 8) | key[i];
  return s;
}

// The active set as util::Rng::choose draws it from the epoch's seed.
Schedule::Mask reference_mask(const HashChain& c, int n, int k,
                              std::size_t epoch) {
  util::Rng rng(reference_seed(c, epoch));
  Schedule::Mask mask = 0;
  for (const std::size_t s : rng.choose(static_cast<std::size_t>(n),
                                        static_cast<std::size_t>(k))) {
    mask |= Schedule::Mask{1} << s;
  }
  return mask;
}

constexpr std::size_t kReferenceEpochs = 1200;  // wraps the 512-key chain

TEST(RoamingSchedule, ActiveMaskMatchesRngChoose) {
  const auto c = chain();
  std::vector<std::pair<int, int>> shapes;
  for (int n = 1; n <= 8; ++n) {
    for (int k = 1; k <= n; ++k) shapes.emplace_back(n, k);
  }
  const int widest = Schedule::kMaxServers;
  for (const int k : {1, 3, widest / 2, widest - 1, widest}) {
    shapes.emplace_back(widest, k);
  }
  for (const auto& [n, k] : shapes) {
    RoamingSchedule s(c, n, k, sim::SimTime::seconds(10));
    for (std::size_t e = 1; e <= kReferenceEpochs; ++e) {
      ASSERT_EQ(s.active_mask(e), reference_mask(*c, n, k, e))
          << "n=" << n << " k=" << k << " epoch " << e;
    }
  }
}

TEST(BernoulliSchedule, ActiveMaskMatchesRngBernoulli) {
  const auto c = chain();
  for (const double p : {0.0, 0.1, 0.3, 0.5, 0.9, 1.0}) {
    BernoulliSchedule s(c, p, sim::SimTime::seconds(10));
    for (std::size_t e = 1; e <= kReferenceEpochs; ++e) {
      util::Rng rng(reference_seed(*c, e));
      ASSERT_EQ(s.active_mask(e), rng.bernoulli(p) ? 0u : 1u)
          << "p=" << p << " epoch " << e;
    }
  }
}

TEST(RoamingSchedule, ExactlyKActivePerEpoch) {
  RoamingSchedule s(chain(), 5, 3, sim::SimTime::seconds(10));
  for (std::size_t e = 1; e <= 100; ++e) {
    const Schedule::Mask active = s.active_mask(e);
    EXPECT_EQ(std::popcount(active), 3);
    EXPECT_EQ(active >> 5, 0u);  // only servers 0..4
  }
}

TEST(RoamingSchedule, IsActiveConsistentWithActiveSet) {
  RoamingSchedule s(chain(), 5, 3, sim::SimTime::seconds(10));
  for (std::size_t e = 1; e <= 50; ++e) {
    const Schedule::Mask active = s.active_mask(e);
    for (int srv = 0; srv < 5; ++srv) {
      EXPECT_EQ(s.is_active(srv, e), ((active >> srv) & 1) != 0);
    }
    // nth_server walks the set bits in ascending order.
    int prev = -1;
    for (int i = 0; i < 3; ++i) {
      const int srv = nth_server(active, static_cast<std::uint64_t>(i));
      EXPECT_GT(srv, prev);
      EXPECT_TRUE(s.is_active(srv, e));
      prev = srv;
    }
  }
}

TEST(RoamingSchedule, DeterministicAcrossInstances) {
  RoamingSchedule a(chain(), 5, 3, sim::SimTime::seconds(10));
  RoamingSchedule b(chain(), 5, 3, sim::SimTime::seconds(10));
  for (std::size_t e = 1; e <= 100; ++e) {
    EXPECT_EQ(a.active_mask(e), b.active_mask(e));
  }
}

TEST(RoamingSchedule, SetsVaryAcrossEpochs) {
  RoamingSchedule s(chain(), 5, 3, sim::SimTime::seconds(10));
  int changes = 0;
  Schedule::Mask prev = s.active_mask(1);
  for (std::size_t e = 2; e <= 100; ++e) {
    const Schedule::Mask cur = s.active_mask(e);
    if (cur != prev) ++changes;
    prev = cur;
  }
  EXPECT_GT(changes, 50);  // the schedule actually roams
}

TEST(RoamingSchedule, HoneypotProbabilityMatchesFrequency) {
  // A server is a honeypot in a fraction (N-k)/N = 0.4 of the epochs.
  RoamingSchedule s(chain(), 5, 3, sim::SimTime::seconds(10));
  int honeypot_epochs = 0;
  const int epochs = 500;
  for (std::size_t e = 1; e <= epochs; ++e) {
    honeypot_epochs += s.is_active(0, e) ? 0 : 1;
  }
  EXPECT_NEAR(honeypot_epochs / static_cast<double>(epochs), 0.4, 0.06);
}

TEST(RoamingSchedule, EpochArithmetic) {
  RoamingSchedule s(chain(), 5, 3, sim::SimTime::seconds(10));
  EXPECT_EQ(s.server_count(), 5);
  EXPECT_EQ(s.epoch_length(), sim::SimTime::seconds(10));
  EXPECT_EQ(s.epoch_of(sim::SimTime::zero()), 1u);
  EXPECT_EQ(s.epoch_of(sim::SimTime::seconds(9.999)), 1u);
  EXPECT_EQ(s.epoch_of(sim::SimTime::seconds(10)), 2u);
  EXPECT_EQ(s.epoch_of(sim::SimTime::seconds(95)), 10u);
  EXPECT_EQ(s.epoch_start(1), sim::SimTime::zero());
  EXPECT_EQ(s.epoch_start(3), sim::SimTime::seconds(20));
  EXPECT_EQ(s.epoch_end(3), sim::SimTime::seconds(30));
}

TEST(RoamingSchedule, AllActiveWhenKEqualsN) {
  RoamingSchedule s(chain(), 5, 5, sim::SimTime::seconds(10));
  for (std::size_t e = 1; e <= 20; ++e) {
    EXPECT_EQ(s.active_mask(e), 0b11111u);
  }
}

// Fairness property: over many epochs, every server serves (and plays
// honeypot) at about the same frequency k/N — no server is structurally
// favoured by the key-derived selection.
class ScheduleFairness
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ScheduleFairness, EveryServerActiveAtRateKOverN) {
  const auto [n, k] = GetParam();
  RoamingSchedule s(chain(), n, k, sim::SimTime::seconds(10));
  const int epochs = 2000;
  std::vector<int> active_count(static_cast<std::size_t>(n), 0);
  for (std::size_t e = 1; e <= epochs; ++e) {
    for (int srv = 0; srv < n; ++srv) {
      active_count[static_cast<std::size_t>(srv)] += s.is_active(srv, e);
    }
  }
  const double expected = static_cast<double>(k) / n;
  for (int srv = 0; srv < n; ++srv) {
    EXPECT_NEAR(active_count[static_cast<std::size_t>(srv)] /
                    static_cast<double>(epochs),
                expected, 0.05)
        << "server " << srv << " of " << n << " (k=" << k << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(NK, ScheduleFairness,
                         ::testing::Values(std::make_pair(5, 3),
                                           std::make_pair(5, 1),
                                           std::make_pair(8, 4),
                                           std::make_pair(10, 7),
                                           std::make_pair(3, 2)));

TEST(BernoulliSchedule, FrequencyMatchesP) {
  BernoulliSchedule s(chain(), 0.3, sim::SimTime::seconds(10));
  EXPECT_EQ(s.server_count(), 1);
  int honeypots = 0;
  const int epochs = 500;
  for (std::size_t e = 1; e <= epochs; ++e) {
    honeypots += s.is_active(0, e) ? 0 : 1;
  }
  EXPECT_NEAR(honeypots / static_cast<double>(epochs), 0.3, 0.05);
}

TEST(BernoulliSchedule, ActiveSetMatchesIsActive) {
  BernoulliSchedule s(chain(), 0.5, sim::SimTime::seconds(5));
  for (std::size_t e = 1; e <= 50; ++e) {
    const Schedule::Mask active = s.active_mask(e);
    EXPECT_LE(active, 1u);  // one server, one bit
    EXPECT_EQ(active == 0, !s.is_active(0, e));
  }
}

TEST(BernoulliSchedule, ExtremeProbabilities) {
  BernoulliSchedule never(chain(), 0.0, sim::SimTime::seconds(5));
  BernoulliSchedule always(chain(), 1.0, sim::SimTime::seconds(5));
  for (std::size_t e = 1; e <= 50; ++e) {
    EXPECT_TRUE(never.is_active(0, e));
    EXPECT_FALSE(always.is_active(0, e));
  }
}

}  // namespace
}  // namespace hbp::honeypot
