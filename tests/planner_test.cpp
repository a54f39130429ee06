// Tests for the capacity planner, flash-crowd workloads, and
// heterogeneous cache capacities.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/planner.h"
#include "sim/simulator.h"
#include "util/expect.h"

namespace ecgf::core {
namespace {

TEST(Planner, RecommendsInteriorGroupCount) {
  model::LatencyModelParams mp;
  mp.catalog_docs = 4000;
  mp.capacity_docs = 100.0;
  mp.intra_group_rtt_ms = model::power_law_rtt_curve(4.0, 60.0, 500.0);
  const std::size_t k = recommend_group_count(mp, 500, 80.0);
  EXPECT_GE(k, 2u);
  EXPECT_LE(k, 250u);
}

TEST(Planner, FartherNetworksGetFewerLargerGroups) {
  model::LatencyModelParams mp;
  mp.catalog_docs = 4000;
  mp.capacity_docs = 50.0;
  mp.intra_group_rtt_ms = model::power_law_rtt_curve(4.0, 60.0, 500.0);
  const std::size_t k_near = recommend_group_count(mp, 500, 5.0);
  const std::size_t k_far = recommend_group_count(mp, 500, 300.0);
  EXPECT_GE(k_near, k_far);  // far ⇒ larger groups ⇒ fewer of them
  EXPECT_GT(k_near, k_far);
}

TEST(Planner, CalibrationProducesUsableModel) {
  TestbedParams params;
  params.cache_count = 60;
  params.workload.duration_ms = 30'000.0;
  const auto testbed = make_testbed(params, 31);
  GfCoordinator coordinator(testbed.network, net::ProberOptions{}, 32);
  sim::SimulationConfig sim_config;
  sim_config.cache_capacity_bytes = 2ull << 20;

  const auto mp = calibrate_latency_model(testbed, coordinator,
                                          params.workload, sim_config);
  EXPECT_EQ(mp.catalog_docs, testbed.catalog.size());
  EXPECT_GT(mp.capacity_docs, 0.0);
  EXPECT_GT(mp.mean_doc_bytes, 0.0);
  ASSERT_NE(mp.intra_group_rtt_ms, nullptr);
  EXPECT_DOUBLE_EQ(mp.intra_group_rtt_ms(1.0), 0.0);
  EXPECT_GT(mp.intra_group_rtt_ms(60.0), mp.intra_group_rtt_ms(5.0));

  // The calibrated model must be runnable end to end.
  const auto prediction = model::predict_latency(mp, 10.0, 60.0);
  EXPECT_GT(prediction.expected_latency_ms, 0.0);
  EXPECT_GT(prediction.group_hit_rate, 0.0);

  const std::size_t k = recommend_group_count(mp, 60, 60.0);
  EXPECT_GE(k, 1u);
  EXPECT_LE(k, 60u);
}

TEST(FlashCrowd, AddsBurstTrafficOnHotSet) {
  cache::CatalogParams cp;
  cp.document_count = 1000;
  util::Rng cat_rng(1);
  const auto catalog = cache::Catalog::generate(cp, cat_rng);

  workload::WorkloadParams base;
  base.cache_count = 10;
  base.duration_ms = 120'000.0;
  base.requests_per_cache_per_s = 1.0;

  util::Rng r1(9);
  const auto calm = workload::generate_trace(base, catalog, r1);

  auto stormy_params = base;
  stormy_params.flash_crowd_enabled = true;
  stormy_params.flash_crowd.start_ms = 40'000.0;
  stormy_params.flash_crowd.duration_ms = 30'000.0;
  stormy_params.flash_crowd.extra_rate_per_cache_per_s = 10.0;
  stormy_params.flash_crowd.hot_docs = 10;
  util::Rng r2(9);
  const auto stormy = workload::generate_trace(stormy_params, catalog, r2);

  // Expected extra volume: 10 caches × 10 req/s × 30 s = 3000.
  const double extra = static_cast<double>(stormy.requests.size()) -
                       static_cast<double>(calm.requests.size());
  EXPECT_NEAR(extra, 3000.0, 300.0);
  EXPECT_NO_THROW(stormy.validate(10, 1000));

  // Burst confined to the window, concentrated on few documents.
  std::map<cache::DocId, int> window_counts;
  int in_window = 0;
  for (const auto& req : stormy.requests) {
    if (req.time_ms >= 40'000.0 && req.time_ms < 70'000.0) {
      ++window_counts[req.doc];
      ++in_window;
    }
  }
  std::vector<int> ranked;
  for (auto [d, n] : window_counts) ranked.push_back(n);
  std::sort(ranked.rbegin(), ranked.rend());
  int top10 = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(10, ranked.size()); ++i) {
    top10 += ranked[i];
  }
  EXPECT_GT(static_cast<double>(top10) / in_window, 0.8);
}

TEST(FlashCrowd, ValidatesWindow) {
  cache::CatalogParams cp;
  cp.document_count = 100;
  util::Rng cat_rng(2);
  const auto catalog = cache::Catalog::generate(cp, cat_rng);
  workload::WorkloadParams params;
  params.cache_count = 2;
  params.duration_ms = 10'000.0;
  params.flash_crowd_enabled = true;
  params.flash_crowd.start_ms = 8'000.0;
  params.flash_crowd.duration_ms = 5'000.0;  // overruns the trace
  util::Rng rng(3);
  EXPECT_THROW(workload::generate_trace(params, catalog, rng),
               util::ContractViolation);
}

TEST(HeterogeneousCapacity, BiggerCachesHitMore) {
  TestbedParams params;
  params.cache_count = 20;
  params.workload.duration_ms = 120'000.0;
  params.catalog.document_count = 2000;
  const auto testbed = make_testbed(params, 71);
  std::vector<std::vector<std::uint32_t>> isolated(20);
  for (std::uint32_t c = 0; c < 20; ++c) isolated[c] = {c};

  sim::SimulationConfig config;
  config.groups = isolated;
  config.per_cache_capacity_bytes.assign(20, 64ull << 10);  // tiny: 64 KB
  for (std::size_t c = 10; c < 20; ++c) {
    config.per_cache_capacity_bytes[c] = 8ull << 20;  // big: 8 MB
  }
  sim::Simulator sim(testbed.catalog, testbed.network.rtt(),
                     testbed.network.server(), config);
  const auto report = sim.run(testbed.trace);

  double small_hits = 0.0, big_hits = 0.0;
  for (std::uint32_t c = 0; c < 20; ++c) {
    const auto& counts = sim.metrics().cache_counts(c);
    const double rate = counts.local_hit_rate();
    (c < 10 ? small_hits : big_hits) += rate;
  }
  EXPECT_GT(big_hits / 10.0, small_hits / 10.0 + 0.1);
  (void)report;
}

TEST(HeterogeneousCapacity, SizeMismatchRejected) {
  TestbedParams params;
  params.cache_count = 5;
  params.workload.duration_ms = 5'000.0;
  const auto testbed = make_testbed(params, 72);
  sim::SimulationConfig config;
  config.groups = {{0, 1, 2, 3, 4}};
  config.per_cache_capacity_bytes.assign(3, 1ull << 20);  // wrong length
  EXPECT_THROW(sim::Simulator(testbed.catalog, testbed.network.rtt(),
                              testbed.network.server(), config),
               util::ContractViolation);
}

}  // namespace
}  // namespace ecgf::core
