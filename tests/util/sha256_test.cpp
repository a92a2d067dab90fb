#include "util/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace hbp::util {
namespace {

// FIPS 180-4 test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, QuickBrownFox) {
  EXPECT_EQ(to_hex(Sha256::hash("The quick brown fox jumps over the lazy dog")),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "honeypot back-propagation";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(to_hex(h.finish()), to_hex(Sha256::hash(msg)));
  }
}

// Boundary lengths around the padding edge (55/56/57, 63/64/65 bytes).
class Sha256PaddingBoundary : public ::testing::TestWithParam<int> {};

TEST_P(Sha256PaddingBoundary, MatchesIncremental) {
  const std::string msg(static_cast<std::size_t>(GetParam()), 'x');
  Sha256 bytewise;
  for (const char c : msg) bytewise.update(std::string_view(&c, 1));
  EXPECT_EQ(to_hex(bytewise.finish()), to_hex(Sha256::hash(msg)));
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256PaddingBoundary,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 128));

// Reference digest straight from the portable kernel: the whole message
// padded in one buffer, every block compressed in one call.
std::string portable_reference_hex(std::span<const std::uint8_t> m) {
  std::vector<std::uint8_t> padded(m.begin(), m.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(m.size());
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  detail::sha256_compress_portable(h.data(), padded.data(), padded.size() / 64);
  Digest d;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      d[4 * i + j] = static_cast<std::uint8_t>(h[i] >> (24 - 8 * j));
    }
  }
  return to_hex(d);
}

// Every length 0..256, one-shot, byte by byte and through update() split at
// random points: covers the partial-block buffering, the whole-block path
// and both padding cases.
TEST(Sha256, BlockwiseUpdateMatchesReferenceAtEveryLength) {
  std::mt19937_64 rng(256);
  std::vector<std::uint8_t> msg(256);
  for (std::uint8_t& b : msg) b = static_cast<std::uint8_t>(rng());
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const std::span<const std::uint8_t> m(msg.data(), len);
    const std::string want = portable_reference_hex(m);
    ASSERT_EQ(to_hex(Sha256::hash(m)), want) << "len " << len;
    Sha256 bytewise;
    for (std::size_t i = 0; i < len; ++i) bytewise.update(m.subspan(i, 1));
    ASSERT_EQ(to_hex(bytewise.finish()), want) << "len " << len;
    for (int trial = 0; trial < 4; ++trial) {
      Sha256 split;
      std::size_t at = 0;
      while (at < len) {
        const std::size_t n = std::min<std::size_t>(len - at, rng() % 80);
        split.update(m.subspan(at, n));
        at += n;
      }
      ASSERT_EQ(to_hex(split.finish()), want) << "len " << len;
    }
  }
}

TEST(Sha256, DigestOverloadMatchesSpan) {
  Digest d = Sha256::hash("seed");
  for (int i = 0; i < 64; ++i) {
    const Digest next = Sha256::hash(d);
    EXPECT_EQ(next,
              Sha256::hash(std::span<const std::uint8_t>(d.data(), d.size())));
    d = next;
  }
}

// The SHA-NI kernel against the portable one, block for block, on 10k
// pseudo-random (state, block) pairs and on multi-block runs.
TEST(Sha256Kernels, HardwareMatchesPortable) {
#if defined(__x86_64__) || defined(__i386__)
  if (!detail::cpu_has_sha_ni()) GTEST_SKIP() << "CPUID reports no SHA-NI";
  std::mt19937 rng(20060425);
  std::array<std::uint8_t, 64 * 4> data{};
  for (int trial = 0; trial < 10000; ++trial) {
    std::array<std::uint32_t, 8> portable{};
    for (std::uint32_t& w : portable) w = rng();
    for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng());
    const std::size_t blocks = trial % 4 + 1;
    std::array<std::uint32_t, 8> hardware = portable;
    detail::sha256_compress_portable(portable.data(), data.data(), blocks);
    detail::sha256_compress_sha_ni(hardware.data(), data.data(), blocks);
    ASSERT_EQ(portable, hardware) << "trial " << trial;
  }
#else
  GTEST_SKIP() << "SHA-NI is x86 only";
#endif
}

TEST(Sha256Kernels, NameMatchesCpuid) {
  EXPECT_STREQ(sha256_kernel(),
               detail::cpu_has_sha_ni() ? "sha-ni" : "portable");
}

// RFC 4231 test case 2.
TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string data = "what do ya want for nothing?";
  const Digest mac = hmac_sha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 1 (20-byte 0x0b key).
TEST(HmacSha256, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  const std::string data = "Hi There";
  const Digest mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(HmacSha256, LongKeyIsHashedFirst) {
  std::vector<std::uint8_t> key(131, 0xaa);
  const std::string data = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DifferentKeysDiffer) {
  const Digest k1 = Sha256::hash("key-one");
  const Digest k2 = Sha256::hash("key-two");
  EXPECT_FALSE(digest_equal(hmac_sha256(k1, "msg"), hmac_sha256(k2, "msg")));
}

TEST(DigestEqual, DetectsSingleBitFlip) {
  Digest a = Sha256::hash("x");
  Digest b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(ToHex, Is64LowercaseChars) {
  const std::string hex = to_hex(Sha256::hash("y"));
  EXPECT_EQ(hex.size(), 64u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

}  // namespace
}  // namespace hbp::util
