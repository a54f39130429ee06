// Tests for the topology substrate: graph, Waxman, transit-stub generator,
// shortest paths, host attachment.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "topology/attachment.h"
#include "topology/graph.h"
#include "topology/shortest_paths.h"
#include "topology/transit_stub.h"
#include "topology/waxman.h"
#include "util/expect.h"

namespace ecgf::topology {
namespace {

TEST(Graph, AddAndQueryEdges) {
  Graph g(4);
  g.add_edge(0, 1, 2.5);
  g.add_edge(1, 2, 1.0);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // undirected
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_DOUBLE_EQ(g.edge_latency(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(g.edge_latency(2, 1), 1.0);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(g.add_edge(0, 1, 2.0), util::ContractViolation);  // duplicate
  EXPECT_THROW(g.add_edge(1, 0, 2.0), util::ContractViolation);  // dup reversed
  EXPECT_THROW(g.add_edge(1, 1, 2.0), util::ContractViolation);  // self loop
  EXPECT_THROW(g.add_edge(0, 3, 2.0), util::ContractViolation);  // out of range
  EXPECT_THROW(g.add_edge(0, 2, 0.0), util::ContractViolation);  // zero latency
  EXPECT_THROW(g.edge_latency(0, 2), util::ContractViolation);   // absent
}

TEST(Graph, ConnectivityDetection) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_FALSE(g.connected());
  g.add_edge(1, 2, 1.0);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, NeighborsIterateBothDirections) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 2.0);
  EXPECT_EQ(g.neighbors(0).size(), 2u);
  EXPECT_EQ(g.neighbors(1).size(), 1u);
  EXPECT_EQ(g.neighbors(1)[0].node, 0u);
}

TEST(Waxman, MembersAlwaysConnected) {
  util::Rng rng(1);
  std::vector<Point> pos(20);
  for (auto& p : pos) p = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  std::vector<NodeId> members(20);
  for (NodeId i = 0; i < 20; ++i) members[i] = i;

  Graph g(20);
  // Tiny alpha: nearly all probabilistic edges rejected, so connectivity
  // must come from the spanning-tree guarantee.
  add_waxman_edges(g, pos, members, WaxmanParams{0.01, 0.1}, 0.05, rng);
  EXPECT_TRUE(g.connected());
  EXPECT_GE(g.edge_count(), 19u);  // at least the spanning tree
}

TEST(Waxman, HigherAlphaMeansMoreEdges) {
  std::vector<Point> pos(30);
  util::Rng pos_rng(2);
  for (auto& p : pos) {
    p = {pos_rng.uniform(0.0, 100.0), pos_rng.uniform(0.0, 100.0)};
  }
  std::vector<NodeId> members(30);
  for (NodeId i = 0; i < 30; ++i) members[i] = i;

  util::Rng rng_sparse(3);
  Graph sparse(30);
  add_waxman_edges(sparse, pos, members, WaxmanParams{0.05, 0.5}, 0.05,
                   rng_sparse);
  util::Rng rng_dense(3);
  Graph dense(30);
  add_waxman_edges(dense, pos, members, WaxmanParams{0.9, 0.9}, 0.05,
                   rng_dense);
  EXPECT_GT(dense.edge_count(), sparse.edge_count());
}

TEST(Waxman, EdgeLatencyProportionalToDistance) {
  std::vector<Point> pos{{0.0, 0.0}, {100.0, 0.0}};
  std::vector<NodeId> members{0, 1};
  util::Rng rng(4);
  Graph g(2);
  add_waxman_edges(g, pos, members, WaxmanParams{1.0, 1.0}, 0.05, rng);
  ASSERT_TRUE(g.has_edge(0, 1));
  EXPECT_NEAR(g.edge_latency(0, 1), 5.0, 1e-9);  // 100 units × 0.05 ms/unit
}

TEST(PlaneDistance, Euclidean) {
  EXPECT_DOUBLE_EQ(plane_distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(plane_distance({1, 1}, {1, 1}), 0.0);
}

TEST(TransitStub, NodeCountsMatchParams) {
  TransitStubParams p;
  p.transit_domains = 2;
  p.transit_nodes_per_domain = 3;
  p.stub_domains_per_transit_node = 2;
  p.stub_nodes_per_domain = 5;
  util::Rng rng(5);
  const auto topo = generate_transit_stub(p, rng);
  const std::size_t transit = 2 * 3;
  const std::size_t stubs = transit * 2 * 5;
  EXPECT_EQ(topo.graph.node_count(), transit + stubs);
  EXPECT_EQ(topo.transit_nodes().size(), transit);
  EXPECT_EQ(topo.stub_nodes().size(), stubs);
  EXPECT_EQ(topo.stub_domain_count(), transit * 2);
}

TEST(TransitStub, AlwaysConnected) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    util::Rng rng(seed);
    TransitStubParams p;
    p.transit_domains = 3;
    const auto topo = generate_transit_stub(p, rng);
    EXPECT_TRUE(topo.graph.connected()) << "seed " << seed;
  }
}

TEST(TransitStub, MetadataConsistent) {
  TransitStubParams p;
  util::Rng rng(6);
  const auto topo = generate_transit_stub(p, rng);
  const std::size_t sd_count = topo.stub_domain_count();
  for (NodeId i = 0; i < topo.nodes.size(); ++i) {
    const NodeInfo& n = topo.nodes[i];
    EXPECT_LT(n.transit_domain, p.transit_domains);
    if (n.level == NodeLevel::kStub) {
      EXPECT_LT(n.stub_domain, sd_count);
    }
  }
}

TEST(TransitStub, HierarchicalLatencies) {
  // Same-stub-domain host pairs should on average be much closer than
  // cross-transit-domain pairs — the hierarchy that makes clustering
  // meaningful.
  TransitStubParams p;
  util::Rng rng(7);
  const auto topo = generate_transit_stub(p, rng);
  const auto stubs = topo.stub_nodes();

  // Sample stub routers across the whole id range so both same-domain and
  // cross-domain pairs occur (ids are grouped by domain).
  std::vector<NodeId> sample;
  const std::size_t stride = std::max<std::size_t>(1, stubs.size() / 40);
  for (std::size_t i = 0; i < stubs.size(); i += stride) {
    sample.push_back(stubs[i]);
  }
  // Add a few adjacent ids to guarantee same-stub-domain pairs too.
  sample.push_back(stubs[0] + 1);
  sample.push_back(stubs[0] + 2);

  double same_sum = 0.0;
  int same_n = 0;
  double cross_sum = 0.0;
  int cross_n = 0;
  const auto dist0 = multi_source_shortest_paths(topo.graph, sample);
  for (std::size_t a = 0; a < sample.size(); ++a) {
    for (std::size_t b = a + 1; b < sample.size(); ++b) {
      const NodeInfo& na = topo.nodes[sample[a]];
      const NodeInfo& nb = topo.nodes[sample[b]];
      const double d = dist0[a][sample[b]];
      if (na.stub_domain == nb.stub_domain) {
        same_sum += d;
        ++same_n;
      } else if (na.transit_domain != nb.transit_domain) {
        cross_sum += d;
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(cross_n, 0);
  EXPECT_LT(same_sum / same_n, 0.5 * (cross_sum / cross_n));
}

TEST(ShortestPaths, MatchesHandComputedGraph) {
  //     1 --2-- 3
  //    /         \      plus 0-1 (1), 3-4 (2)
  //   0 ----10--- 4
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 2.0);
  g.add_edge(3, 4, 2.0);
  g.add_edge(0, 4, 10.0);
  g.add_edge(1, 2, 2.0);
  const auto d = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
  EXPECT_DOUBLE_EQ(d[3], 3.0);
  EXPECT_DOUBLE_EQ(d[4], 5.0);  // 0-1-3-4 beats direct 10
}

TEST(ShortestPaths, UnreachableIsInfinity) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto d = dijkstra(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
}

TEST(ShortestPaths, SymmetricOnUndirectedGraph) {
  util::Rng rng(8);
  TransitStubParams p;
  p.transit_domains = 2;
  p.stub_nodes_per_domain = 4;
  const auto topo = generate_transit_stub(p, rng);
  const auto d0 = dijkstra(topo.graph, 0);
  const auto d5 = dijkstra(topo.graph, 5);
  EXPECT_NEAR(d0[5], d5[0], 1e-9);
}

TEST(Attachment, DistinctRoutersWhenPossible) {
  util::Rng rng(9);
  TransitStubParams p;
  const auto topo = generate_transit_stub(p, rng);
  PlacementOptions opts;
  const auto placement = place_hosts(topo, 50, opts, rng);
  ASSERT_EQ(placement.host_count(), 50u);
  std::vector<NodeId> sorted = placement.attach_node;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "attachment routers should be distinct when hosts <= stub routers";
}

TEST(Attachment, AllAttachedToStubRouters) {
  util::Rng rng(10);
  TransitStubParams p;
  const auto topo = generate_transit_stub(p, rng);
  const auto placement = place_hosts(topo, 30, PlacementOptions{}, rng);
  for (NodeId a : placement.attach_node) {
    EXPECT_EQ(topo.nodes[a].level, NodeLevel::kStub);
  }
  for (double lm : placement.last_mile_ms) {
    EXPECT_GE(lm, PlacementOptions{}.last_mile_min_ms);
    EXPECT_LE(lm, PlacementOptions{}.last_mile_max_ms);
  }
}

TEST(Attachment, RttMatrixSymmetricZeroDiagonal) {
  util::Rng rng(11);
  TransitStubParams p;
  p.transit_domains = 2;
  const auto topo = generate_transit_stub(p, rng);
  const auto placement = place_hosts(topo, 20, PlacementOptions{}, rng);
  const auto rtt = host_rtt_matrix(topo.graph, placement);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(rtt[i][i], 0.0);
    for (std::size_t j = 0; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(rtt[i][j], rtt[j][i]);
      if (i != j) {
        EXPECT_GT(rtt[i][j], 0.0);
      }
    }
  }
}

TEST(Attachment, RttIncludesLastMileBothEnds) {
  // Two hosts on the same router: RTT = 2 × (lm_i + 0 + lm_j).
  util::Rng rng(12);
  TransitStubParams p;
  p.transit_domains = 1;
  p.transit_nodes_per_domain = 1;
  p.stub_domains_per_transit_node = 1;
  p.stub_nodes_per_domain = 2;
  const auto topo = generate_transit_stub(p, rng);

  HostPlacement placement;
  const auto stubs = topo.stub_nodes();
  placement.attach_node = {stubs[0], stubs[0]};
  placement.last_mile_ms = {1.0, 2.0};
  const auto rtt = host_rtt_matrix(topo.graph, placement);
  EXPECT_DOUBLE_EQ(rtt[0][1], 2.0 * (1.0 + 2.0));
}

// Property sweep: generated topologies stay connected and host RTTs stay in
// a sane band across seeds.
class TopologySeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologySeedSweep, GeneratedNetworksWellFormed) {
  util::Rng rng(GetParam());
  TransitStubParams p;
  const auto topo = generate_transit_stub(p, rng);
  ASSERT_TRUE(topo.graph.connected());
  const auto placement = place_hosts(topo, 40, PlacementOptions{}, rng);
  const auto rtt = host_rtt_matrix(topo.graph, placement);
  double max_rtt = 0.0;
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = i + 1; j < 40; ++j) {
      EXPECT_GT(rtt[i][j], 0.0);
      max_rtt = std::max(max_rtt, rtt[i][j]);
    }
  }
  // Plane 1000 × 0.05 ms/unit: a one-way path should stay well under 1 s.
  EXPECT_LT(max_rtt, 1000.0);
  EXPECT_GT(max_rtt, 5.0);  // and the network is not degenerate
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologySeedSweep,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

}  // namespace
}  // namespace ecgf::topology
