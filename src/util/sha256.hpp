// SHA-256 and HMAC-SHA256, implemented from scratch (FIPS 180-4 / RFC 2104).
//
// Used by the roaming-honeypots hash chain (one-way key chain, Section 4 of
// the paper) and for authenticating inter-AS honeypot request/cancel
// messages (Section 5.3, "Message security").
//
// The block compression is picked once, at static initialisation: the x86
// SHA extensions (SHA-NI) when CPUID reports them, otherwise the portable
// scalar code.  Both produce the same digests bit for bit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace hbp::util {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s);

  // Finalises and returns the digest; the object must not be reused after.
  Digest finish();

  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view s);
  // Digest of a digest (the hash chain's step): one pre-padded block.
  static Digest hash(const Digest& data);

 private:
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

// HMAC-SHA256 (RFC 2104).
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message);
Digest hmac_sha256(const Digest& key, std::string_view message);

// Constant-time digest comparison.
bool digest_equal(const Digest& a, const Digest& b);

std::string to_hex(const Digest& d);

// The compression kernel this process runs: "sha-ni" or "portable".
const char* sha256_kernel();

namespace detail {

// Both kernels compress `blocks` consecutive 64-byte blocks into `state`.
// Exposed so tests can hold the hardware kernel to the portable one.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);
#if defined(__x86_64__) || defined(__i386__)
// Requires cpu_has_sha_ni().
__attribute__((target("sha,sse4.1"))) void sha256_compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks);
#endif
// CPUID reports SHA, SSSE3 and SSE4.1 (always false off x86).
bool cpu_has_sha_ni();

}  // namespace detail

}  // namespace hbp::util
