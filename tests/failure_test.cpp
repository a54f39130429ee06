// Tests for failure injection: crashed caches, directory purge, beacon
// failover, and the Vivaldi position-representation extension.
#include <gtest/gtest.h>

#include "cache/directory.h"
#include "core/coordinator.h"
#include "core/experiment.h"
#include "net/distance_matrix.h"
#include "sim/simulator.h"

namespace ecgf {
namespace {

TEST(DirectoryFailure, RemoveAllForHolder) {
  cache::GroupDirectory dir({1, 2, 3});
  dir.add_holder(10, 1);
  dir.add_holder(10, 2);
  dir.add_holder(11, 1);
  dir.add_holder(12, 3);
  EXPECT_EQ(dir.remove_all_for_holder(1), 2u);
  EXPECT_EQ(dir.registration_count(), 2u);
  EXPECT_EQ(dir.holders(10).size(), 1u);
  EXPECT_TRUE(dir.holders(11).empty());
  EXPECT_EQ(dir.remove_all_for_holder(1), 0u);  // idempotent
}

TEST(DirectoryFailure, BeaconSlotMatchesBeaconFor) {
  cache::GroupDirectory dir({4, 7, 9}, 2);
  for (cache::DocId d = 0; d < 50; ++d) {
    EXPECT_EQ(dir.beacon_for(d), dir.members()[dir.beacon_slot(d)]);
    EXPECT_LT(dir.beacon_slot(d), dir.beacon_count());
  }
}

// Hosts: caches 0,1,2 + origin 3. 0↔1=10, 0↔2=20, 1↔2=10, *↔Os=100.
net::MatrixRttProvider failover_provider() {
  net::DistanceMatrix m(4);
  m.set(0, 1, 10.0);
  m.set(0, 2, 20.0);
  m.set(1, 2, 10.0);
  m.set(0, 3, 100.0);
  m.set(1, 3, 100.0);
  m.set(2, 3, 100.0);
  return net::MatrixRttProvider(std::move(m));
}

cache::Catalog small_catalog() {
  std::vector<cache::DocumentInfo> docs(4);
  for (auto& d : docs) d = {1000, 20.0, 0.0};
  return cache::Catalog(std::move(docs));
}

sim::SimulationConfig base_config() {
  sim::SimulationConfig config;
  config.groups = {{0, 1, 2}};
  config.cache_capacity_bytes = 100'000;
  config.policy = cache::PolicyKind::kLru;
  config.cost.local_processing_ms = 1.0;
  config.cost.bandwidth_bytes_per_ms = 1000.0;
  config.warmup_fraction = 0.0;
  return config;
}

TEST(SimulatorFailure, DownCacheFallsBackToOrigin) {
  const auto provider = failover_provider();
  const auto catalog = small_catalog();
  workload::Trace trace;
  trace.duration_ms = 20'000.0;
  trace.requests = {{100.0, 0, 0}, {10'000.0, 0, 0}};

  auto config = base_config();
  config.failures = {{0, 5'000.0}};  // cache 0 dies between the requests
  sim::Simulator sim(catalog, provider, 3, config);
  const auto report = sim.run(trace);

  EXPECT_EQ(report.failures_applied, 1u);
  // First request: origin fetch + insert. Second: cache is down → origin.
  EXPECT_EQ(report.counts.origin_fetches, 2u);
  EXPECT_EQ(report.counts.local_hits, 0u);
  EXPECT_TRUE(sim.engine().is_down(0));
  EXPECT_FALSE(sim.engine().is_down(1));
}

TEST(SimulatorFailure, CrashedHolderRoutedAround) {
  const auto provider = failover_provider();
  const auto catalog = small_catalog();
  // Doc 0's beacon in group {0,1,2} (all beacons): slot = hash % 3.
  // Cache 1 fetches doc 0 and holds it; cache 1 then crashes; cache 2's
  // request must go to the origin (no fresh holder), not to cache 1.
  workload::Trace trace;
  trace.duration_ms = 30'000.0;
  trace.requests = {{100.0, 1, 0}, {20'000.0, 2, 0}};

  auto config = base_config();
  config.failures = {{1, 10'000.0}};
  sim::Simulator sim(catalog, provider, 3, config);
  const auto report = sim.run(trace);

  EXPECT_EQ(report.counts.origin_fetches, 2u);
  EXPECT_EQ(report.counts.group_hits, 0u);
}

TEST(SimulatorFailure, SurvivingHolderStillServes) {
  const auto provider = failover_provider();
  const auto catalog = small_catalog();
  // Cache 1 holds doc 0; cache 0 crashes (irrelevant holder-wise); cache
  // 2's request should still be served by cache 1 as a group hit.
  workload::Trace trace;
  trace.duration_ms = 30'000.0;
  trace.requests = {{100.0, 1, 0}, {20'000.0, 2, 0}};

  auto config = base_config();
  config.failures = {{0, 10'000.0}};
  sim::Simulator sim(catalog, provider, 3, config);
  const auto report = sim.run(trace);

  EXPECT_EQ(report.counts.origin_fetches, 1u);
  EXPECT_EQ(report.counts.group_hits, 1u);
}

TEST(SimulatorFailure, AllBeaconsDownStillServesViaOrigin) {
  const auto provider = failover_provider();
  const auto catalog = small_catalog();
  workload::Trace trace;
  trace.duration_ms = 30'000.0;
  trace.requests = {{20'000.0, 2, 0}};

  auto config = base_config();
  config.beacons_per_group = 2;     // beacons = members {0, 1}
  config.failures = {{0, 100.0}, {1, 100.0}};
  sim::Simulator sim(catalog, provider, 3, config);
  const auto report = sim.run(trace);

  EXPECT_EQ(report.counts.origin_fetches, 1u);
  EXPECT_EQ(report.failures_applied, 2u);
  EXPECT_GT(report.failover_lookups, 0u);
}

TEST(SimulatorFailure, FailureDegradesButDoesNotBreakLargeRun) {
  core::TestbedParams params;
  params.cache_count = 30;
  params.workload.duration_ms = 60'000.0;
  params.catalog.document_count = 500;
  const auto testbed = core::make_testbed(params, 55);
  util::Rng rng(56);
  const auto partition = core::random_partition(30, 3, rng);

  const auto healthy = core::simulate_partition(testbed, partition);

  sim::SimulationConfig chaos;
  // A third of the caches crash midway through the trace.
  for (std::uint32_t c = 0; c < 30; c += 3) {
    chaos.failures.push_back({c, 30'000.0});
  }
  const auto degraded = core::simulate_partition(testbed, partition, chaos);

  EXPECT_EQ(degraded.failures_applied, 10u);
  EXPECT_EQ(degraded.counts.total(), healthy.counts.total());
  // Crashes cost hits, never gain them.
  EXPECT_LE(degraded.counts.local_hits + degraded.counts.group_hits,
            healthy.counts.local_hits + healthy.counts.group_hits);
  EXPECT_GE(degraded.counts.origin_fetches, healthy.counts.origin_fetches);
}

TEST(VivaldiScheme, FormsValidGroups) {
  core::EdgeNetworkParams params;
  params.cache_count = 40;
  const auto network = core::build_edge_network(params, 66);
  core::GfCoordinator coordinator(network, net::ProberOptions{}, 67);
  core::SchemeConfig config;
  config.num_landmarks = 8;
  config.positions = core::PositionKind::kVivaldi;
  config.vivaldi.rounds = 25;
  const core::SlScheme scheme(config);
  const auto result = coordinator.run(scheme, 5);

  EXPECT_EQ(result.groups.size(), 5u);
  std::vector<int> seen(40, 0);
  for (const auto& g : result.groups) {
    for (auto m : g.members) ++seen[m];
  }
  for (int c : seen) EXPECT_EQ(c, 1);
  // Vivaldi clustering should still clearly beat a random partition.
  const double vivaldi_cost =
      coordinator.average_group_interaction_cost(result);
  util::Rng rng(68);
  const cluster::DistanceFn icost = [&](std::size_t a, std::size_t b) {
    return network.rtt_ms(static_cast<net::HostId>(a),
                          static_cast<net::HostId>(b));
  };
  double random_cost = 0.0;
  for (int r = 0; r < 5; ++r) {
    const auto partition = core::random_partition(40, 5, rng);
    std::vector<std::vector<std::size_t>> groups;
    for (const auto& g : partition) groups.emplace_back(g.begin(), g.end());
    random_cost += cluster::average_group_interaction_cost(groups, icost);
  }
  EXPECT_LT(vivaldi_cost, random_cost / 5);
}

}  // namespace
}  // namespace ecgf
