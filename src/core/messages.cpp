#include "core/messages.hpp"

#include <algorithm>
#include <cstdio>

namespace hbp::core {

namespace {
std::string field(const char* name, long long v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%lld;", name, v);
  return buf;
}
}  // namespace

std::string serialize(const HoneypotRequest& m) {
  return "hbp-request;" + field("dst", m.dst) +
         field("epoch", static_cast<long long>(m.epoch)) +
         field("wstart_ns", m.window.start.nanos()) +
         field("wend_ns", m.window.end.nanos()) +
         field("from", m.from_as) + field("to", m.to_as) +
         field("direct", m.progressive_direct ? 1 : 0);
}

std::string serialize(const HoneypotCancel& m) {
  return "hbp-cancel;" + field("dst", m.dst) +
         field("epoch", static_cast<long long>(m.epoch)) +
         field("from", m.from_as) + field("to", m.to_as) +
         field("server", m.from_server ? 1 : 0);
}

std::string serialize(const IntermediateReport& m) {
  return "hbp-report;" + field("as", m.as) + field("dst", m.dst) +
         field("epoch", static_cast<long long>(m.epoch)) +
         field("stamp_ns", m.stamped_at.nanos());
}

util::Digest KeyStore::pair_key(net::AsId a, net::AsId b) const {
  const net::AsId lo = std::min(a, b);
  const net::AsId hi = std::max(a, b);
  return util::hmac_sha256(master_, "as-pair;" + field("lo", lo) + field("hi", hi));
}

util::Digest KeyStore::server_key(net::AsId a) const {
  return util::hmac_sha256(master_, "server;" + field("as", a));
}

util::Digest KeyStore::key_for(const HoneypotRequest& m) const {
  return m.from_as == m.to_as || m.progressive_direct
             ? server_key(m.to_as)
             : pair_key(m.from_as, m.to_as);
}

util::Digest KeyStore::key_for(const HoneypotCancel& m) const {
  return m.from_server ? server_key(m.to_as) : pair_key(m.from_as, m.to_as);
}

util::Digest KeyStore::key_for(const IntermediateReport& m) const {
  return server_key(m.as);
}

}  // namespace hbp::core
