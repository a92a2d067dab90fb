#include "util/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "util/assert.hpp"

namespace hbp::util {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

// Dynamically initialised before main(); a use during another translation
// unit's static initialisation reads the zero value and runs portable code.
const bool g_sha_ni = detail::cpu_has_sha_ni();

void compress(std::uint32_t* state, const std::uint8_t* data,
              std::size_t blocks) {
#if defined(__x86_64__) || defined(__i386__)
  if (g_sha_ni) {
    detail::sha256_compress_sha_ni(state, data, blocks);
    return;
  }
#endif
  detail::sha256_compress_portable(state, data, blocks);
}

Digest digest_of(const std::array<std::uint32_t, 8>& h) {
  Digest out;
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, h[i]);
  return out;
}

// Compresses the final block of a message whose last 32 bytes, `tail`,
// start a block: tail, 0x80, zeros, then the length in bits.
Digest finish_32(std::array<std::uint32_t, 8> h, const Digest& tail,
                 std::uint64_t total_len) {
  std::array<std::uint8_t, 64> block{};
  std::memcpy(block.data(), tail.data(), tail.size());
  block[32] = 0x80;
  store_be64(block.data() + 56, total_len * 8);
  compress(h.data(), block.data(), 1);
  return digest_of(h);
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

// Intel SHA extensions.  The state lives in two registers as ABEF and CDGH;
// each group of four rounds adds W[4g..4g+3] + K to one message vector and
// runs two sha256rnds2 steps.  From group 4 on, the schedule is
// W_t = msg2(msg1(W_{t-16}, W_{t-12}) + W_{t-7}, W_{t-4}), four at a time.
__attribute__((target("sha,sse4.1"))) void sha256_compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL,
                                       0x0405060700010203LL);
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            bswap);
      } else {
        __m128i x = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        x = _mm_add_epi32(x,
                          _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(x, w[(g + 3) & 3]);
      }
      const __m128i wk = _mm_add_epi32(
          w[g & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_SHA) != 0;
}

#else

bool cpu_has_sha_ni() { return false; }

#endif

}  // namespace detail

Sha256::Sha256() : h_(kInit) {}

void Sha256::update(std::span<const std::uint8_t> data) {
  HBP_ASSERT(!finished_);
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ < buffer_.size()) return;
    compress(h_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t blocks = n / 64;
  if (blocks > 0) compress(h_.data(), p, blocks);
  buffer_len_ = n % 64;
  if (buffer_len_ > 0) {
    std::memcpy(buffer_.data(), p + 64 * blocks, buffer_len_);
  }
}

void Sha256::update(std::string_view s) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest Sha256::finish() {
  HBP_ASSERT(!finished_);
  finished_ = true;

  // Padding: 0x80, zeros up to offset 56 (mod 64), then the 64-bit
  // big-endian message length in bits.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(h_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  store_be64(buffer_.data() + 56, total_len_ * 8);
  compress(h_.data(), buffer_.data(), 1);
  return digest_of(h_);
}

Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 s;
  s.update(data);
  return s.finish();
}

Digest Sha256::hash(std::string_view sv) {
  Sha256 s;
  s.update(sv);
  return s.finish();
}

Digest Sha256::hash(const Digest& data) { return finish_32(kInit, data, 32); }

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const Digest kd = Sha256::hash(key);
    std::memcpy(k_block.data(), kd.data(), kd.size());
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad{}, opad{};
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k_block[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ipad);
  inner.update(message);
  const Digest inner_digest = inner.finish();

  std::array<std::uint32_t, 8> outer = kInit;
  compress(outer.data(), opad.data(), 1);
  return finish_32(outer, inner_digest, 64 + 32);
}

Digest hmac_sha256(const Digest& key, std::string_view message) {
  return hmac_sha256(
      std::span<const std::uint8_t>(key.data(), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(message.data()), message.size()));
}

bool digest_equal(const Digest& a, const Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

const char* sha256_kernel() { return g_sha_ni ? "sha-ni" : "portable"; }

std::string to_hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t byte : d) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace hbp::util
