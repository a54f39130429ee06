// Experiment harness shared by the figure benches and the examples: builds
// a full testbed (network + catalog + trace), runs schemes, and evaluates
// partitions with the paper's two metrics (average group interaction cost,
// average cache latency).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/catalog.h"
#include "core/coordinator.h"
#include "core/network_builder.h"
#include "core/scheme.h"
#include "sim/config.h"
#include "workload/generator.h"

namespace ecgf::core {

/// A complete, self-consistent experimental testbed.
struct Testbed {
  EdgeNetwork network;
  cache::Catalog catalog;
  workload::Trace trace;
};

struct TestbedParams {
  std::size_t cache_count = 100;
  cache::CatalogParams catalog{};
  workload::WorkloadParams workload{};  ///< cache_count is overwritten
  /// When true, topology parameters scale with cache_count automatically.
  bool auto_scale_topology = true;
  EdgeNetworkParams network{};
};

/// Build a deterministic testbed from a single seed.
Testbed make_testbed(const TestbedParams& params, std::uint64_t seed);

/// Build only the network of the testbed `make_testbed(params, seed)`
/// would produce (identical topology/placement/RTTs) — for sweep points
/// that evaluate formation quality without simulating a workload.
EdgeNetwork make_testbed_network(const TestbedParams& params,
                                 std::uint64_t seed);

/// Run the simulator over a partition of the testbed's caches.
sim::SimulationReport simulate_partition(
    const Testbed& testbed,
    const std::vector<std::vector<std::uint32_t>>& partition,
    sim::SimulationConfig config = {});

/// Mean latency over the requests of a cache subset, from a finished
/// report (per-cache means averaged — caches have equal request rates).
double subset_mean_latency(const sim::SimulationReport& report,
                           const std::vector<std::uint32_t>& subset);

/// Partition of all caches into ceil(N/size) contiguous random groups —
/// the "no scheme" strawman used in tests. Promoted to a first-class
/// scheme as schemes::RandomScheme (registry key "random"), which wraps
/// exactly this shuffle + round-robin deal.
std::vector<std::vector<std::uint32_t>> random_partition(std::size_t n,
                                                         std::size_t k,
                                                         util::Rng& rng);

}  // namespace ecgf::core
