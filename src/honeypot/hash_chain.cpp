#include "honeypot/hash_chain.hpp"

#include "util/assert.hpp"

namespace hbp::honeypot {

HashChain::HashChain(const util::Digest& tail_key, std::size_t length) {
  HBP_ASSERT(length >= 1);
  keys_.resize(length);
  keys_[length - 1] = tail_key;  // K_n
  for (std::size_t i = length - 1; i > 0; --i) {
    keys_[i - 1] = util::Sha256::hash(keys_[i]);  // K_i = H(K_{i+1})
  }
}

const util::Digest& HashChain::key(std::size_t i) const {
  HBP_ASSERT(i >= 1 && i <= keys_.size());
  return keys_[i - 1];
}

util::Digest HashChain::derive(const util::Digest& k_j, std::size_t j,
                               std::size_t i) {
  HBP_ASSERT(i >= 1 && i <= j);
  util::Digest d = k_j;
  for (std::size_t step = 0; step < j - i; ++step) d = util::Sha256::hash(d);
  return d;
}

bool HashChain::verify(const util::Digest& claimed, std::size_t j,
                       const util::Digest& anchor, std::size_t i) {
  if (i > j) return false;
  return util::digest_equal(derive(claimed, j, i), anchor);
}

}  // namespace hbp::honeypot
