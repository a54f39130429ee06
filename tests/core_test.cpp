// Tests for the core schemes: SL, SDSL, coordinator, network builder,
// experiment helpers — including the paper's Fig. 1/2 worked example.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "core/network_builder.h"
#include "core/scheme.h"
#include "util/expect.h"

namespace ecgf::core {
namespace {

/// The paper's Figure-1 distance matrix. Hosts Ec0..Ec5; server last (6).
net::MatrixRttProvider paper_matrix() {
  const double m[7][7] = {
      {0.0, 4.0, 17.0, 14.4, 17.0, 14.4, 12.0},
      {4.0, 0.0, 14.4, 11.3, 14.4, 11.3, 8.0},
      {17.0, 14.4, 0.0, 4.0, 17.0, 14.4, 12.0},
      {14.4, 11.3, 4.0, 0.0, 14.4, 11.3, 8.0},
      {17.0, 14.4, 17.0, 14.4, 0.0, 4.0, 12.0},
      {14.4, 11.3, 14.4, 11.3, 4.0, 0.0, 8.0},
      {12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 0.0},
  };
  std::vector<std::vector<double>> full(7, std::vector<double>(7));
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 7; ++j) full[i][j] = m[i][j];
  }
  return net::MatrixRttProvider(net::DistanceMatrix::from_full(full));
}

net::Prober exact_prober(const net::RttProvider& p, std::uint64_t seed = 1) {
  net::ProberOptions opts;
  opts.jitter_sigma = 0.0;
  return net::Prober(p, opts, util::Rng(seed));
}

/// Partition as a set of member-sets, for order-independent comparison.
std::set<std::set<net::HostId>> as_sets(const GroupingResult& r) {
  std::set<std::set<net::HostId>> out;
  for (const auto& g : r.groups) {
    out.insert(std::set<net::HostId>(g.members.begin(), g.members.end()));
  }
  return out;
}

TEST(SlScheme, ReproducesPaperWorkedExample) {
  // N=6, K=3, L=3: the network has three obvious proximity pairs
  // {Ec0,Ec1}, {Ec2,Ec3}, {Ec4,Ec5} (intra-pair RTT 4 ms, cross ≥ 11.3 ms).
  // Any correct proximity clustering must find exactly those pairs.
  const auto provider = paper_matrix();
  SchemeConfig config;
  config.num_landmarks = 3;
  config.m_multiplier = 2;
  const SlScheme scheme(config);

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto prober = exact_prober(provider, seed);
    util::Rng rng(seed * 31 + 7);
    const auto result = scheme.form_groups(6, 6, 3, prober, rng);
    const std::set<std::set<net::HostId>> expected{
        {0, 1}, {2, 3}, {4, 5}};
    EXPECT_EQ(as_sets(result), expected) << "seed " << seed;
    EXPECT_EQ(result.landmarks[0], 6u);  // server is always a landmark
  }
}

TEST(SlScheme, PartitionCoversAllCachesOnce) {
  const auto provider = paper_matrix();
  const SlScheme scheme;
  SchemeConfig cfg;
  cfg.num_landmarks = 3;
  const SlScheme scheme3(cfg);
  auto prober = exact_prober(provider);
  util::Rng rng(3);
  const auto result = scheme3.form_groups(6, 6, 2, prober, rng);
  std::vector<int> seen(6, 0);
  for (const auto& g : result.groups) {
    for (auto m : g.members) ++seen[m];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }));
}

TEST(SlScheme, ServerDistanceIsFeatureComponentZero) {
  const auto provider = paper_matrix();
  SchemeConfig config;
  config.num_landmarks = 3;
  const SlScheme scheme(config);
  auto prober = exact_prober(provider);
  util::Rng rng(4);
  const auto result = scheme.form_groups(6, 6, 3, prober, rng);
  ASSERT_EQ(result.server_distance_ms.size(), 6u);
  for (net::HostId c = 0; c < 6; ++c) {
    EXPECT_DOUBLE_EQ(result.server_distance_ms[c], provider.rtt_ms(c, 6));
  }
}

TEST(SlScheme, ProbeAccountingPositive) {
  const auto provider = paper_matrix();
  SchemeConfig config;
  config.num_landmarks = 3;
  const SlScheme scheme(config);
  auto prober = exact_prober(provider);
  util::Rng rng(5);
  const auto result = scheme.form_groups(6, 6, 3, prober, rng);
  EXPECT_GT(result.probes_used, 0u);
  EXPECT_EQ(result.probes_used, prober.probes_sent());
}

TEST(SlScheme, RejectsBadK) {
  const auto provider = paper_matrix();
  const SlScheme scheme;
  auto prober = exact_prober(provider);
  util::Rng rng(6);
  EXPECT_THROW(scheme.form_groups(6, 6, 0, prober, rng),
               util::ContractViolation);
  EXPECT_THROW(scheme.form_groups(6, 6, 7, prober, rng),
               util::ContractViolation);
}

TEST(SdslScheme, AlsoFindsProximityPairsOnPaperExample) {
  const auto provider = paper_matrix();
  SchemeConfig config;
  config.num_landmarks = 3;
  config.theta = 1.0;
  const SdslScheme scheme(config);
  auto prober = exact_prober(provider, 2);
  util::Rng rng(11);
  const auto result = scheme.form_groups(6, 6, 3, prober, rng);
  const std::set<std::set<net::HostId>> expected{{0, 1}, {2, 3}, {4, 5}};
  EXPECT_EQ(as_sets(result), expected);
}

TEST(SdslScheme, NearGroupsSmallerThanFarGroups) {
  // Synthetic line network: caches 0..59 at distance (i+1)×5 ms from the
  // server. With θ=2 the average group size among the near half should be
  // smaller than among the far half.
  const std::size_t n = 60;
  net::DistanceMatrix m(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    m.set(i, n, 5.0 * static_cast<double>(i + 1));  // to server
    for (std::size_t j = i + 1; j < n; ++j) {
      m.set(i, j, 5.0 * static_cast<double>(j - i));
    }
  }
  net::MatrixRttProvider provider(std::move(m));

  SchemeConfig config;
  config.num_landmarks = 8;
  config.theta = 2.0;
  const SdslScheme scheme(config);

  double near_size_sum = 0.0, far_size_sum = 0.0;
  int near_groups = 0, far_groups = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto prober = exact_prober(provider, seed);
    util::Rng rng(seed);
    const auto result = scheme.form_groups(n, n, 10, prober, rng);
    for (const auto& g : result.groups) {
      double mean_pos = 0.0;
      for (auto c : g.members) mean_pos += static_cast<double>(c);
      mean_pos /= static_cast<double>(g.members.size());
      if (mean_pos < n / 2.0) {
        near_size_sum += static_cast<double>(g.members.size());
        ++near_groups;
      } else {
        far_size_sum += static_cast<double>(g.members.size());
        ++far_groups;
      }
    }
  }
  ASSERT_GT(near_groups, 0);
  ASSERT_GT(far_groups, 0);
  EXPECT_LT(near_size_sum / near_groups, far_size_sum / far_groups);
}

TEST(NetworkBuilder, BuildsConsistentNetwork) {
  EdgeNetworkParams params;
  params.cache_count = 30;
  const auto network = build_edge_network(params, 42);
  EXPECT_EQ(network.cache_count(), 30u);
  EXPECT_EQ(network.server(), 30u);
  EXPECT_EQ(network.host_count(), 31u);
  EXPECT_EQ(network.rtt().host_count(), 31u);
  // Symmetric, zero-diagonal, positive off-diagonal.
  for (net::HostId a = 0; a < 31; ++a) {
    EXPECT_DOUBLE_EQ(network.rtt_ms(a, a), 0.0);
    for (net::HostId b = a + 1; b < 31; ++b) {
      EXPECT_GT(network.rtt_ms(a, b), 0.0);
      EXPECT_DOUBLE_EQ(network.rtt_ms(a, b), network.rtt_ms(b, a));
    }
  }
}

TEST(NetworkBuilder, DeterministicForSeed) {
  EdgeNetworkParams params;
  params.cache_count = 20;
  const auto n1 = build_edge_network(params, 7);
  const auto n2 = build_edge_network(params, 7);
  for (net::HostId a = 0; a < 21; ++a) {
    for (net::HostId b = a + 1; b < 21; ++b) {
      EXPECT_DOUBLE_EQ(n1.rtt_ms(a, b), n2.rtt_ms(a, b));
    }
  }
}

TEST(NetworkBuilder, NearestFarthestOrdering) {
  EdgeNetworkParams params;
  params.cache_count = 40;
  const auto network = build_edge_network(params, 9);
  const auto near = network.nearest_caches(10);
  const auto far = network.farthest_caches(10);
  ASSERT_EQ(near.size(), 10u);
  ASSERT_EQ(far.size(), 10u);
  const auto os = network.server();
  for (std::size_t i = 1; i < near.size(); ++i) {
    EXPECT_LE(network.rtt_ms(near[i - 1], os), network.rtt_ms(near[i], os));
  }
  EXPECT_LT(network.rtt_ms(near.back(), os), network.rtt_ms(far.back(), os));
  // Disjoint for 10+10 out of 40.
  std::set<std::uint32_t> ns(near.begin(), near.end());
  for (auto f : far) EXPECT_FALSE(ns.contains(f));
}

TEST(NetworkBuilder, ScaledTopologyCoversLargePopulations) {
  const auto p = scaled_topology_for(2000);
  const std::size_t stubs = static_cast<std::size_t>(p.transit_domains) *
                            p.transit_nodes_per_domain *
                            p.stub_domains_per_transit_node *
                            p.stub_nodes_per_domain;
  EXPECT_GE(stubs, 2001u);
}

TEST(Coordinator, GicostMatchesManualComputation) {
  EdgeNetworkParams params;
  params.cache_count = 12;
  const auto network = build_edge_network(params, 3);
  GfCoordinator coordinator(network, net::ProberOptions{}, 5);
  const SlScheme scheme;
  SchemeConfig cfg;
  cfg.num_landmarks = 5;
  const SlScheme scheme5(cfg);
  const auto result = coordinator.run(scheme5, 3);

  // Manual recomputation from ground truth.
  double total = 0.0;
  int counted = 0;
  for (const auto& g : result.groups) {
    if (g.members.size() < 2) continue;
    double sum = 0.0;
    int pairs = 0;
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      for (std::size_t j = i + 1; j < g.members.size(); ++j) {
        sum += network.rtt_ms(g.members[i], g.members[j]);
        ++pairs;
      }
    }
    total += sum / pairs;
    ++counted;
  }
  const double manual = counted ? total / counted : 0.0;
  EXPECT_NEAR(coordinator.average_group_interaction_cost(result), manual,
              1e-9);
}

TEST(Coordinator, TransferCostShiftsGicost) {
  EdgeNetworkParams params;
  params.cache_count = 12;
  const auto network = build_edge_network(params, 3);
  GfCoordinator coordinator(network, net::ProberOptions{}, 5);
  SchemeConfig cfg;
  cfg.num_landmarks = 5;
  const SlScheme scheme(cfg);
  const auto result = coordinator.run(scheme, 3);
  const double base = coordinator.average_group_interaction_cost(result, 0.0);
  const double shifted =
      coordinator.average_group_interaction_cost(result, 7.5);
  EXPECT_NEAR(shifted - base, 7.5, 1e-9);
}

TEST(Experiment, MakeTestbedDeterministic) {
  TestbedParams params;
  params.cache_count = 15;
  params.workload.duration_ms = 20'000.0;
  const auto t1 = make_testbed(params, 99);
  const auto t2 = make_testbed(params, 99);
  EXPECT_EQ(t1.trace.requests.size(), t2.trace.requests.size());
  EXPECT_EQ(t1.catalog.size(), t2.catalog.size());
  EXPECT_DOUBLE_EQ(t1.network.rtt_ms(0, 1), t2.network.rtt_ms(0, 1));
}

TEST(Experiment, SimulatePartitionRuns) {
  TestbedParams params;
  params.cache_count = 15;
  params.workload.duration_ms = 30'000.0;
  const auto testbed = make_testbed(params, 100);
  util::Rng rng(5);
  const auto partition = random_partition(15, 3, rng);
  const auto report = simulate_partition(testbed, partition);
  EXPECT_EQ(report.requests_processed, testbed.trace.requests.size());
  EXPECT_GT(report.avg_latency_ms, 0.0);
}

TEST(Experiment, RandomPartitionProperties) {
  util::Rng rng(6);
  const auto groups = random_partition(17, 5, rng);
  EXPECT_EQ(groups.size(), 5u);
  std::vector<int> seen(17, 0);
  for (const auto& g : groups) {
    EXPECT_FALSE(g.empty());
    for (auto m : g) ++seen[m];
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Experiment, SchemeFactory) {
  EXPECT_EQ(make_scheme(SchemeKind::kSl)->name(), "SL");
  EXPECT_EQ(make_scheme(SchemeKind::kSdsl)->name(), "SDSL");
}

TEST(Experiment, SubsetMeanLatencySkipsIdleCaches) {
  sim::SimulationReport report;
  report.per_cache_latency_ms = {10.0, 0.0, 30.0};
  EXPECT_DOUBLE_EQ(subset_mean_latency(report, {0, 2}), 20.0);
  EXPECT_DOUBLE_EQ(subset_mean_latency(report, {0, 1}), 10.0);
}

// Property sweep: both schemes produce valid partitions across seeds & K.
struct SchemeSweepParam {
  SchemeKind kind;
  std::size_t k;
  std::uint64_t seed;
};

class SchemeSweep : public ::testing::TestWithParam<SchemeSweepParam> {};

TEST_P(SchemeSweep, ValidPartition) {
  const auto [kind, k, seed] = GetParam();
  EdgeNetworkParams params;
  params.cache_count = 40;
  const auto network = build_edge_network(params, seed);
  GfCoordinator coordinator(network, net::ProberOptions{}, seed + 1);
  SchemeConfig cfg;
  cfg.num_landmarks = 8;
  const auto scheme = make_scheme(kind, cfg);
  const auto result = coordinator.run(*scheme, k);

  EXPECT_EQ(result.groups.size(), k);
  std::vector<int> seen(40, 0);
  for (const auto& g : result.groups) {
    EXPECT_FALSE(g.members.empty());
    for (auto m : g.members) {
      ASSERT_LT(m, 40u);
      ++seen[m];
    }
  }
  for (int c : seen) EXPECT_EQ(c, 1);
  EXPECT_EQ(result.landmarks.size(), 8u);
  EXPECT_EQ(result.landmarks[0], network.server());
}

// gtest names each case after the raw bytes of its parameter, padding
// included. A static array is zero-initialised, padding and all, so the
// names stay the same from run to run; stack temporaries passed to
// ::testing::Values would leave stray bytes in them.
constexpr SchemeSweepParam kSchemeSweepParams[] = {
    {SchemeKind::kSl, 2, 1},   {SchemeKind::kSl, 5, 2},
    {SchemeKind::kSl, 10, 3},  {SchemeKind::kSl, 40, 4},
    {SchemeKind::kSdsl, 2, 5}, {SchemeKind::kSdsl, 5, 6},
    {SchemeKind::kSdsl, 10, 7}, {SchemeKind::kSdsl, 40, 8}};

INSTANTIATE_TEST_SUITE_P(Grid, SchemeSweep,
                         ::testing::ValuesIn(kSchemeSweepParams));

}  // namespace
}  // namespace ecgf::core
