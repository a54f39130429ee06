#include "core/experiment.h"

#include <numeric>

#include "obs/profile.h"
#include "sim/simulator.h"
#include "util/expect.h"

namespace ecgf::core {

namespace {

/// Network construction shared by make_testbed and make_testbed_network;
/// advances `rng` identically in both so the derived seeds line up.
EdgeNetwork build_testbed_network(const TestbedParams& params,
                                  util::Rng& rng) {
  ECGF_EXPECTS(params.cache_count >= 2);
  EdgeNetworkParams net_params = params.network;
  net_params.cache_count = params.cache_count;
  if (params.auto_scale_topology) {
    net_params.topo = scaled_topology_for(params.cache_count);
  }
  return build_edge_network(net_params, rng.fork(11).uniform_int(0, 1 << 30));
}

}  // namespace

Testbed make_testbed(const TestbedParams& params, std::uint64_t seed) {
  ECGF_PROF_SCOPE("core.make_testbed");
  util::Rng rng(seed);
  EdgeNetwork network = build_testbed_network(params, rng);

  util::Rng catalog_rng = rng.fork(12);
  cache::Catalog catalog = cache::Catalog::generate(params.catalog, catalog_rng);

  workload::WorkloadParams wl = params.workload;
  wl.cache_count = params.cache_count;
  util::Rng trace_rng = rng.fork(13);
  workload::Trace trace = workload::generate_trace(wl, catalog, trace_rng);

  return Testbed{std::move(network), std::move(catalog), std::move(trace)};
}

EdgeNetwork make_testbed_network(const TestbedParams& params,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  return build_testbed_network(params, rng);
}

sim::SimulationReport simulate_partition(
    const Testbed& testbed,
    const std::vector<std::vector<std::uint32_t>>& partition,
    sim::SimulationConfig config) {
  config.groups = partition;
  return sim::run_simulation(testbed.catalog, testbed.network.rtt(),
                             testbed.network.server(), std::move(config),
                             testbed.trace);
}

double subset_mean_latency(const sim::SimulationReport& report,
                           const std::vector<std::uint32_t>& subset) {
  ECGF_EXPECTS(!subset.empty());
  double total = 0.0;
  std::size_t counted = 0;
  for (std::uint32_t c : subset) {
    ECGF_EXPECTS(c < report.per_cache_latency_ms.size());
    if (report.per_cache_latency_ms[c] <= 0.0) continue;
    total += report.per_cache_latency_ms[c];
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

std::vector<std::vector<std::uint32_t>> random_partition(std::size_t n,
                                                         std::size_t k,
                                                         util::Rng& rng) {
  ECGF_EXPECTS(k >= 1 && k <= n);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(order);
  std::vector<std::vector<std::uint32_t>> groups(k);
  for (std::size_t i = 0; i < n; ++i) {
    groups[i % k].push_back(order[i]);
  }
  return groups;
}

}  // namespace ecgf::core
