// Property sweep over schedules and epochs: the server pool's role check
// partitions time correctly for every server, epoch, and guard
// configuration.
#include <gtest/gtest.h>

#include <memory>

#include "honeypot/server_pool.hpp"
#include "net/network.hpp"
#include "net/router.hpp"

namespace hbp::honeypot {
namespace {

class WindowSweep : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(WindowSweep, PredicatesPartitionTime) {
  const auto [n, k, epoch_s] = GetParam();

  sim::Simulator simulator;
  net::Network network(simulator);
  auto& router = network.add_node<net::Router>("r");
  std::vector<sim::NodeId> nodes;
  std::vector<sim::Address> addrs;
  for (int s = 0; s < n; ++s) {
    auto& host = network.add_node<net::Host>("s" + std::to_string(s));
    network.connect(router.id(), host.id(), net::LinkParams{});
    host.set_address(network.assign_address(host.id()));
    nodes.push_back(host.id());
    addrs.push_back(host.address());
  }
  network.compute_routes();

  auto chain = std::make_shared<HashChain>(util::Sha256::hash("sweep"), 256);
  RoamingSchedule schedule(chain, n, k, sim::SimTime::seconds(epoch_s));
  CheckpointStore store;
  ServerPoolParams params;
  params.delta = sim::SimTime::millis(50);
  params.gamma = sim::SimTime::millis(25);
  ServerPool pool(simulator, network, schedule, nodes, addrs, store, params);

  // The honeypot window of every inactive epoch is the epoch shrunk by δ+γ
  // at each end, and the honeypot role holds exactly on its bounds.
  using Role = ServerPool::Role;
  const sim::SimTime guard = params.delta + params.gamma;
  const sim::SimTime tick = sim::SimTime::micros(1);
  for (std::size_t epoch = 1; epoch <= 20; ++epoch) {
    const SessionWindow window = pool.honeypot_window(epoch);
    ASSERT_EQ(window.start, schedule.epoch_start(epoch) + guard);
    ASSERT_EQ(window.end, schedule.epoch_end(epoch) - guard);
    for (int s = 0; s < n; ++s) {
      if (schedule.is_active(s, epoch)) continue;
      ASSERT_EQ(pool.role_at(s, window.start + tick), Role::kHoneypot);
      ASSERT_EQ(pool.role_at(s, window.end), Role::kHoneypot);
      ASSERT_NE(pool.role_at(s, window.start - tick), Role::kHoneypot);
      ASSERT_NE(pool.role_at(s, window.end + tick), Role::kHoneypot);
    }
  }

  // Probe a dense grid of instants across 20 epochs.
  for (double t = 0.2; t < 20 * epoch_s; t += epoch_s / 7.3) {
    const auto at = sim::SimTime::seconds(t);
    const auto epoch = schedule.epoch_of(at);
    for (int s = 0; s < n; ++s) {
      const Role role = pool.role_at(s, at);
      // A server active in t's epoch serves; a honeypot role lies inside
      // the epoch's honeypot window.
      if (schedule.is_active(s, epoch)) {
        ASSERT_EQ(role, Role::kActive) << "t=" << t << " s=" << s;
      } else if (role == Role::kHoneypot) {
        ASSERT_TRUE(pool.honeypot_window(epoch).contains(at))
            << "t=" << t << " s=" << s;
      }
      // Inside an inactive epoch, away from boundaries by more than the
      // guards, the server is a honeypot.
      const double into = t - schedule.epoch_start(epoch).to_seconds();
      const double left = schedule.epoch_end(epoch).to_seconds() - t;
      const double guard = 0.2;  // > delta + gamma
      if (into > guard && left > guard && !schedule.is_active(s, epoch)) {
        ASSERT_EQ(role, Role::kHoneypot) << "t=" << t << " s=" << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pools, WindowSweep,
    ::testing::Values(std::make_tuple(5, 3, 10.0), std::make_tuple(5, 3, 5.0),
                      std::make_tuple(5, 1, 10.0), std::make_tuple(8, 5, 4.0),
                      std::make_tuple(3, 2, 2.0)));

}  // namespace
}  // namespace hbp::honeypot
