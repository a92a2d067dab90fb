// Bloom filter over 64-bit digests — the storage core of SPIE-style
// single-packet traceback (Snoeren et al., "Hash-based IP traceback",
// SIGCOMM 2001): routers remember every forwarded packet in per-window
// Bloom filters instead of storing the packets themselves.
#pragma once

#include <cstdint>
#include <vector>

namespace hbp::util {

class BloomFilter {
 public:
  // `bits` cells, `hashes` probes per item.
  BloomFilter(std::size_t bits, int hashes);

  void insert(std::uint64_t digest);
  bool maybe_contains(std::uint64_t digest) const;

  std::size_t byte_size() const { return (bits_.size() + 7) / 8; }
  std::uint64_t inserted() const { return inserted_; }

  // Fraction of set cells; the theoretical false-positive rate is
  // fill^hashes.
  double fill_ratio() const;
  double false_positive_rate() const;

  void clear();

 private:
  std::uint64_t probe(std::uint64_t digest, int i) const;

  std::vector<bool> bits_;
  int hashes_;
  std::uint64_t inserted_ = 0;
  std::uint64_t set_cells_ = 0;
};

// Stable 64-bit mix (SplitMix64 finalizer) for deriving packet digests.
std::uint64_t mix64(std::uint64_t x);

}  // namespace hbp::util
