#include "honeypot/hash_chain.hpp"

#include <gtest/gtest.h>

namespace hbp::honeypot {
namespace {

util::Digest tail() { return util::Sha256::hash("tail-key"); }

TEST(HashChain, ChainRelation) {
  HashChain chain(tail(), 16);
  EXPECT_EQ(chain.length(), 16u);
  for (std::size_t i = 1; i < 16; ++i) {
    // K_i == H(K_{i+1})
    const auto next = chain.key(i + 1);
    EXPECT_TRUE(util::digest_equal(
        chain.key(i),
        util::Sha256::hash(std::span<const std::uint8_t>(next.data(),
                                                         next.size()))));
  }
}

TEST(HashChain, TailIsLastKey) {
  HashChain chain(tail(), 8);
  EXPECT_TRUE(util::digest_equal(chain.key(8), tail()));
}

TEST(HashChain, DeriveWalksBackward) {
  HashChain chain(tail(), 32);
  for (std::size_t j : {32u, 20u, 5u}) {
    for (std::size_t i = 1; i <= j; i += 3) {
      EXPECT_TRUE(util::digest_equal(HashChain::derive(chain.key(j), j, i),
                                     chain.key(i)));
    }
  }
}

TEST(HashChain, VerifyAcceptsGenuineKeys) {
  HashChain chain(tail(), 64);
  EXPECT_TRUE(HashChain::verify(chain.key(40), 40, chain.key(1), 1));
  EXPECT_TRUE(HashChain::verify(chain.key(40), 40, chain.key(40), 40));
  EXPECT_TRUE(HashChain::verify(chain.key(2), 2, chain.key(1), 1));
}

TEST(HashChain, VerifyRejectsForgedKey) {
  HashChain chain(tail(), 64);
  util::Digest forged = chain.key(40);
  forged[0] ^= 1;
  EXPECT_FALSE(HashChain::verify(forged, 40, chain.key(1), 1));
}

TEST(HashChain, VerifyRejectsWrongIndexClaim) {
  HashChain chain(tail(), 64);
  // Claiming K_40 is K_41 breaks the derivation.
  EXPECT_FALSE(HashChain::verify(chain.key(40), 41, chain.key(1), 1));
}

TEST(HashChain, VerifyRejectsFutureAnchor) {
  HashChain chain(tail(), 64);
  EXPECT_FALSE(HashChain::verify(chain.key(10), 10, chain.key(20), 20));
}

TEST(HashChain, ForwardSecrecyHoldsStructurally) {
  // Knowing K_10 yields every key <= 10 but none above: deriving K_11 from
  // K_10 is not possible via the public API (derive requires i <= j), and
  // hashing K_10 gives K_9, not K_11.
  HashChain chain(tail(), 32);
  const auto k10 = chain.key(10);
  const auto hashed = util::Sha256::hash(
      std::span<const std::uint8_t>(k10.data(), k10.size()));
  EXPECT_TRUE(util::digest_equal(hashed, chain.key(9)));
  EXPECT_FALSE(util::digest_equal(hashed, chain.key(11)));
}

TEST(HashChain, DifferentTailsDisjointChains) {
  HashChain a(util::Sha256::hash("a"), 16);
  HashChain b(util::Sha256::hash("b"), 16);
  for (std::size_t i = 1; i <= 16; ++i) {
    EXPECT_FALSE(util::digest_equal(a.key(i), b.key(i)));
  }
}

// A full-length chain (the string scenario's 8192 keys) against hex
// recorded from the portable byte-at-a-time implementation: a wrong fast
// path fails here, not only in a golden digest.
TEST(HashChain, LongChainKnownAnswers) {
  const HashChain chain(tail(), 8192);
  EXPECT_EQ(util::to_hex(chain.key(1)),
            "2d01786ba3d7e1e93c42f8b057e4102914d37304bcf3db67c1a71805d2c388a2");
  EXPECT_EQ(util::to_hex(chain.key(4096)),
            "4772333c13e8ed4d60e232ff3c5c2ee005a0ea3cc625a4c3518564fde5d808eb");
  EXPECT_TRUE(util::digest_equal(HashChain::derive(chain.key(4096), 4096, 1),
                                 chain.key(1)));
}

}  // namespace
}  // namespace hbp::honeypot
