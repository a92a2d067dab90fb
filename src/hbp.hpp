// Umbrella header: the public API of the honeypot back-propagation
// library.  Downstream users can include just this; the individual module
// headers remain available for finer-grained dependencies.
//
//   #include "hbp.hpp"
//
//   hbp::scenario::TreeExperimentConfig config;
//   config.scheme = hbp::scenario::Scheme::kHbp;
//   const auto result = hbp::scenario::run_tree_experiment(config, seed);
#pragma once

// Substrates.
#include "net/control_plane.hpp"    // IWYU pragma: export
#include "net/host.hpp"             // IWYU pragma: export
#include "net/network.hpp"          // IWYU pragma: export
#include "net/router.hpp"           // IWYU pragma: export
#include "net/switch_node.hpp"      // IWYU pragma: export
#include "sim/simulator.hpp"        // IWYU pragma: export
#include "topo/string_topo.hpp"     // IWYU pragma: export
#include "topo/tree.hpp"            // IWYU pragma: export
#include "traffic/cbr.hpp"          // IWYU pragma: export
#include "traffic/follower.hpp"     // IWYU pragma: export
#include "traffic/onoff.hpp"        // IWYU pragma: export
#include "traffic/probe.hpp"        // IWYU pragma: export
#include "transport/tcp.hpp"        // IWYU pragma: export

// Roaming honeypots.
#include "honeypot/client.hpp"      // IWYU pragma: export
#include "honeypot/schedule.hpp"    // IWYU pragma: export
#include "honeypot/server_pool.hpp" // IWYU pragma: export
#include "honeypot/tcp_client.hpp"  // IWYU pragma: export

// Defenses and baselines.
#include "core/defense.hpp"         // IWYU pragma: export
#include "marking/ppm.hpp"          // IWYU pragma: export
#include "marking/stackpi.hpp"      // IWYU pragma: export
#include "pushback/agent.hpp"       // IWYU pragma: export

// Analysis and experiments.
#include "analysis/capture_time.hpp"       // IWYU pragma: export
#include "scenario/string_experiment.hpp"  // IWYU pragma: export
#include "scenario/tree_experiment.hpp"    // IWYU pragma: export
