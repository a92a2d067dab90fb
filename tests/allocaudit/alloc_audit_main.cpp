// Allocation audit for the packet hot path (no gtest: replacing the global
// allocator must own the whole binary).
//
// Replaces global operator new/delete with counting wrappers and runs one
// of two audits, named by the first argument:
//
//   packet_path  A string-topology CBR flood run to steady state; a further
//                measurement window must perform ZERO heap allocations —
//                every packet hop (host send, router forward, link queue,
//                serialize/deliver events, receive) runs on recycled
//                storage: in-place sim::Event closures, the event-queue
//                slab, and warm ring buffers.
//   tree_hbp     A reduced Fig. 8 tree run under HBP, with honeypot
//                windows, HSM sessions and divert filters active.  Its
//                run-phase allocations (the full run's minus those of the
//                same run at zero horizon) must stay under a per-hop bound.
//
// Only meaningful in Release builds (debug-mode containers and iterator
// bookkeeping allocate) and without sanitizers (ASan interposes the
// allocator); both cases exit 77, which ctest maps to SKIPPED.
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define HBP_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HBP_UNDER_ASAN 1
#endif
#endif
#ifndef HBP_UNDER_ASAN
#define HBP_UNDER_ASAN 0
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc requires size to be a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#include <string_view>

#include "net/host.hpp"
#include "net/network.hpp"
#include "scenario/tree_experiment.hpp"
#include "sim/simulator.hpp"
#include "topo/string_topo.hpp"
#include "traffic/cbr.hpp"
#include "util/rng.hpp"

namespace {

std::uint64_t g_delivered = 0;

void count_delivery(const hbp::sim::Packet&) { ++g_delivered; }

// Returns the number of heap allocations observed during a 5-simulated-
// second measurement window after a 3-second warm-up, plus the packet-hop
// count of the window via out-params.  Unused in the debug and ASan builds,
// where main() skips.
[[maybe_unused]] std::uint64_t audit_packet_path(std::uint64_t* hops_out) {
  using namespace hbp;
  sim::Simulator simulator;
  net::Network network(simulator);
  topo::StringParams params;
  params.hops = 6;
  params.link_bps = 10e6;
  const topo::StringTopo topo = topo::build_string(network, params);
  network.compute_routes();

  static_cast<net::Host&>(network.node(topo.server))
      .set_receiver(&count_delivery);

  util::Rng rng(1);
  traffic::CbrParams cbr;
  cbr.rate_bps = 4e6;  // well under link capacity: no growing backlog
  cbr.packet_size = 1000;
  const sim::Address dst = topo.server_addr;
  traffic::CbrSource source(simulator,
                            static_cast<net::Host&>(network.node(topo.attacker_host)),
                            rng, cbr, [dst] { return dst; });
  source.start();

  // Warm-up: ring buffers, the event slab, and the event heap all reach
  // their steady-state capacity here.
  simulator.run_until(sim::SimTime::seconds(3));

  const std::uint64_t delivered_before = g_delivered;
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  simulator.run_until(sim::SimTime::seconds(8));
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t packets = g_delivered - delivered_before;
  // Each delivered packet crossed every link of the chain: gateway, the
  // chain routers, the access switch.
  *hops_out = packets * static_cast<std::uint64_t>(params.hops + 3);
  return allocs;
}

// Reduced Fig. 8 under HBP: 120 leaves, the paper's 75 clients and 25
// spoofing attackers at 1 Mb/s, k = 3 of 5 roaming servers, 30 s.
hbp::scenario::TreeExperimentConfig tree_hbp_config(double horizon) {
  hbp::scenario::TreeExperimentConfig config;
  config.scheme = hbp::scenario::Scheme::kHbp;
  config.tree.leaf_count = 120;
  config.sim_seconds = horizon;
  config.attack_start = 5.0;
  config.attack_end = 25.0;
  return config;
}

// Allocations a whole run makes, the run's result via out-param.
std::uint64_t allocs_of_run(double horizon, hbp::scenario::TreeResult* out) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  *out = hbp::scenario::run_tree_experiment(tree_hbp_config(horizon), 2);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

// The ceiling on run-phase allocations per packet hop.  What is left
// under it grows with sessions and timers, not with packets: the 50-ms
// switch-port harvest, HSM and router-agent sessions, divert filters,
// control-message MACs, and queue rings and the event slab growing to
// their peak.
constexpr double kTreeAllocsPerHop = 0.01;

[[maybe_unused]] bool audit_tree_hbp() {
  using namespace hbp;
  scenario::TreeResult setup;
  scenario::TreeResult run;
  const std::uint64_t setup_allocs = allocs_of_run(0.0, &setup);
  const std::uint64_t run_allocs = allocs_of_run(30.0, &run) - setup_allocs;
  const telemetry::Counter* transmitted =
      run.telemetry->find_counter("net.packets.transmitted");
  const std::uint64_t hops = transmitted != nullptr ? transmitted->value() : 0;
  std::uint64_t diverted = 0;
  run.telemetry->visit([&](const auto& name,
                           const telemetry::Counter* c, const auto*,
                           const auto*, const auto*) {
    if (c != nullptr && name.starts_with("core.hsm.") &&
        name.ends_with(".diverted")) {
      diverted += c->value();
    }
  });
  const double per_hop =
      hops > 0 ? static_cast<double>(run_allocs) / static_cast<double>(hops)
               : 0.0;
  std::printf("%llu packet hops, %llu run-phase heap allocations "
              "(%.5f per hop), %llu activations, %llu diverted, "
              "%zu captured\n",
              static_cast<unsigned long long>(hops),
              static_cast<unsigned long long>(run_allocs), per_hop,
              static_cast<unsigned long long>(run.hbp_activations),
              static_cast<unsigned long long>(diverted), run.captured);
  bool ok = true;
  if (hops < 100000 || run.hbp_activations == 0 || diverted == 0) {
    std::fprintf(stderr, "FAIL: the run did not exercise HBP sessions and "
                         "diverts at scale\n");
    ok = false;
  }
  if (per_hop > kTreeAllocsPerHop) {
    std::fprintf(stderr,
                 "FAIL: %.5f run-phase allocations per hop (bound %.2f)\n",
                 per_hop, kTreeAllocsPerHop);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view audit = argc > 1 ? argv[1] : "";
  if (audit != "packet_path" && audit != "tree_hbp") {
    std::fprintf(stderr, "usage: %s packet_path|tree_hbp\n", argv[0]);
    return 2;
  }
#if !defined(NDEBUG)
  std::fprintf(stderr,
               "SKIP: allocation audit requires a Release build "
               "(debug containers allocate)\n");
  return 77;
#elif HBP_UNDER_ASAN
  std::fprintf(stderr, "SKIP: allocation audit is meaningless under ASan\n");
  return 77;
#else
  if (audit == "tree_hbp") return audit_tree_hbp() ? 0 : 1;
  std::uint64_t hops = 0;
  const std::uint64_t allocs = audit_packet_path(&hops);
  std::printf("%llu packet hops, %llu heap allocations in window\n",
              static_cast<unsigned long long>(hops),
              static_cast<unsigned long long>(allocs));
  bool ok = true;
  if (hops < 10000) {
    std::fprintf(stderr, "FAIL: window too small (%llu hops)\n",
                 static_cast<unsigned long long>(hops));
    ok = false;
  }
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state packet path allocated %llu times "
                 "(expected 0)\n",
                 static_cast<unsigned long long>(allocs));
    ok = false;
  }
  return ok ? 0 : 1;
#endif
}
