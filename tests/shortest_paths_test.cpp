// Randomised bit-identity test of the bridge-tree shortest-path kernel.
//
// A seeded generator draws graphs from six families that stress different
// parts of topology::BridgeTreePaths:
//
//   * transit-stub worlds at several sizes (stub domains hang off one
//     gateway bridge each; the certified folds do most of the work),
//   * flat Waxman graphs (dense ones have no bridge: one component),
//   * random trees, paths and forests (every edge a bridge),
//   * cores with pendant chains (long bridge paths into a 2-edge-connected
//     core, some ending in a small cycle),
//   * integer-weight grids and
//   * chains of equal-weight cycles (exact ties: slack 0, so the entered
//     components fall back to a seeded Dijkstra).
//
// Every row of multi_source_shortest_paths, on a 1-thread and an 8-thread
// pool, must equal dijkstra() byte for byte; unreachable nodes included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/network_builder.h"
#include "topology/graph.h"
#include "topology/shortest_paths.h"
#include "topology/transit_stub.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ecgf::topology {
namespace {

constexpr std::uint64_t kSeeds = 36;

enum class Family {
  kTransitStub,
  kWaxman,
  kTree,
  kPendantChains,
  kIntegerGrid,
  kIntegerCycles
};
constexpr int kFamilies = 6;

const char* family_name(Family f) {
  switch (f) {
    case Family::kTransitStub: return "transit-stub";
    case Family::kWaxman: return "waxman";
    case Family::kTree: return "tree";
    case Family::kPendantChains: return "pendant-chains";
    case Family::kIntegerGrid: return "integer-grid";
    case Family::kIntegerCycles: return "integer-cycles";
  }
  return "?";
}

struct Case {
  Family family;
  Graph graph{1};
  std::vector<NodeId> sources;
  bool dense = false;   ///< a Waxman graph dense enough to have no bridge
  bool forest = false;  ///< deliberately disconnected
  std::string describe() const {
    return std::string(family_name(family)) +
           " n=" + std::to_string(graph.node_count()) +
           " m=" + std::to_string(graph.edge_count()) +
           " sources=" + std::to_string(sources.size());
  }
};

/// Adds u—v unless present (generators may propose an edge twice).
void link(Graph& g, NodeId u, NodeId v, double w) {
  if (u != v && !g.has_edge(u, v)) g.add_edge(u, v, w);
}

/// A chain of `length` new nodes hanging off `at`; returns its far end.
NodeId add_chain(Graph& g, NodeId& next, NodeId at, std::size_t length,
                 util::Rng& rng, bool integer) {
  NodeId prev = at;
  for (std::size_t i = 0; i < length; ++i) {
    const NodeId v = next++;
    link(g, prev, v,
         integer ? static_cast<double>(rng.uniform_int(1, 3))
                 : rng.uniform(0.05, 30.0));
    prev = v;
  }
  return prev;
}

Case make_case(std::uint64_t seed) {
  util::Rng rng(0x5EEDull * 7'919ull + seed);
  Case c;
  c.family = static_cast<Family>((seed - 1) % kFamilies);
  const std::size_t round = (seed - 1) / kFamilies;  // 0..5
  switch (c.family) {
    case Family::kTransitStub: {
      const std::size_t caches[] = {24, 700, 1024, 2000, 4096, 1500};
      const std::size_t n = caches[round % 6];
      auto topo = generate_transit_stub(core::scaled_topology_for(n), rng);
      c.sources = topo.stub_nodes();
      if (n > 1024) {
        // The reference is one whole-graph Dijkstra per source: sample.
        rng.shuffle(c.sources);
        c.sources.resize(64);
      }
      c.graph = std::move(topo.graph);
      return c;
    }
    case Family::kWaxman: {
      const std::size_t n = 60 + rng.index(240);
      c.dense = round % 2 == 0;
      std::vector<Point> at(n);
      for (auto& p : at) p = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
      std::vector<NodeId> members(n);
      std::iota(members.begin(), members.end(), NodeId{0});
      Graph g(n);
      const WaxmanParams params{c.dense ? 1.0 : 0.08, c.dense ? 1.0 : 0.2};
      add_waxman_edges(g, at, members, params, 0.5, rng);
      c.graph = std::move(g);
      break;
    }
    case Family::kTree: {
      const std::size_t n = 2 + rng.index(300);
      const bool path = round % 3 == 0;
      c.forest = round % 3 == 1;
      Graph g(n);
      for (NodeId v = 1; v < n; ++v) {
        // A forest leaves its middle node unattached to the earlier ones.
        if (c.forest && v == n / 2) continue;
        const NodeId u = path ? v - 1 : static_cast<NodeId>(rng.index(v));
        link(g, u, v, rng.uniform(0.05, 30.0));
      }
      c.graph = std::move(g);
      break;
    }
    case Family::kPendantChains: {
      const std::size_t core = 4 + rng.index(30);
      const std::size_t chains = 1 + rng.index(12);
      std::vector<std::size_t> lengths(chains);
      std::size_t n = core;
      for (auto& l : lengths) {
        l = 1 + rng.index(15);
        n += l + 2;  // room for a closing triangle
      }
      Graph g(n);
      NodeId next = static_cast<NodeId>(core);
      for (NodeId v = 0; v < core; ++v) {  // a cycle plus chords
        link(g, v, static_cast<NodeId>((v + 1) % core), rng.uniform(0.05, 30.0));
      }
      for (std::size_t i = 0; i < core / 2; ++i) {
        link(g, static_cast<NodeId>(rng.index(core)),
             static_cast<NodeId>(rng.index(core)), rng.uniform(0.05, 30.0));
      }
      for (std::size_t l : lengths) {
        const NodeId end = add_chain(g, next, static_cast<NodeId>(rng.index(core)),
                                     l, rng, false);
        if (rng.bernoulli(0.5)) {  // close a triangle at the far end
          const NodeId a = next++, b = next++;
          link(g, end, a, rng.uniform(0.05, 30.0));
          link(g, a, b, rng.uniform(0.05, 30.0));
          link(g, b, end, rng.uniform(0.05, 30.0));
        }
      }
      // Unused tail ids stay isolated nodes: unreachable from everything.
      c.graph = std::move(g);
      break;
    }
    case Family::kIntegerGrid: {
      const std::size_t rows = 2 + rng.index(8), cols = 2 + rng.index(8);
      const std::size_t chains = 1 + rng.index(4);
      const std::size_t n = rows * cols + chains * 6;
      Graph g(n);
      const auto id = [cols](std::size_t r, std::size_t k) {
        return static_cast<NodeId>(r * cols + k);
      };
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t k = 0; k < cols; ++k) {
          const double w = static_cast<double>(rng.uniform_int(1, 2));
          if (k + 1 < cols) link(g, id(r, k), id(r, k + 1), w);
          if (r + 1 < rows) link(g, id(r, k), id(r + 1, k), w);
        }
      }
      NodeId next = static_cast<NodeId>(rows * cols);
      for (std::size_t i = 0; i < chains; ++i) {
        add_chain(g, next, static_cast<NodeId>(rng.index(rows * cols)),
                  1 + rng.index(6), rng, true);
      }
      c.graph = std::move(g);
      break;
    }
    case Family::kIntegerCycles: {
      const std::size_t cycles = 2 + rng.index(6);
      std::vector<std::size_t> sizes(cycles);
      std::size_t n = 0;
      for (auto& s : sizes) n += s = 3 + rng.index(9);
      Graph g(n);
      NodeId base = 0;
      NodeId prev_exit = 0;
      for (std::size_t i = 0; i < cycles; ++i) {
        const double w = static_cast<double>(rng.uniform_int(1, 4));
        for (std::size_t k = 0; k < sizes[i]; ++k) {
          link(g, static_cast<NodeId>(base + k),
               static_cast<NodeId>(base + (k + 1) % sizes[i]), w);
        }
        // A bridge from a node of the previous cycle to this one.
        if (i > 0) {
          link(g, prev_exit, static_cast<NodeId>(base + rng.index(sizes[i])),
               static_cast<double>(rng.uniform_int(1, 4)));
        }
        prev_exit = static_cast<NodeId>(base + rng.index(sizes[i]));
        base += static_cast<NodeId>(sizes[i]);
      }
      c.graph = std::move(g);
      break;
    }
  }
  // Every node as a source, or a random quarter of them (which leaves
  // some trees unbuilt: `run` stays exact wherever a source goes).
  c.sources.resize(c.graph.node_count());
  std::iota(c.sources.begin(), c.sources.end(), NodeId{0});
  if (round % 2 == 1) {
    rng.shuffle(c.sources);
    c.sources.resize(std::max<std::size_t>(1, c.sources.size() / 4));
  }
  return c;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class BridgeTreeIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BridgeTreeIdentity, EveryRowMatchesDijkstraBytes) {
  const Case c = make_case(GetParam());
  SCOPED_TRACE(c.describe());
  util::ThreadPool serial(1), wide(8);
  const auto one = multi_source_shortest_paths(c.graph, c.sources, &serial);
  const auto eight = multi_source_shortest_paths(c.graph, c.sources, &wide);
  ASSERT_EQ(one.size(), c.sources.size());
  ASSERT_EQ(eight.size(), c.sources.size());
  for (std::size_t i = 0; i < c.sources.size(); ++i) {
    const auto reference = dijkstra(c.graph, c.sources[i]);
    EXPECT_TRUE(same_bytes(one[i], reference)) << "source " << c.sources[i];
    EXPECT_TRUE(same_bytes(eight[i], reference))
        << "source " << c.sources[i] << ", 8 threads";
  }

  const BridgeTreePaths paths(c.graph, c.sources);
  if (c.dense) {
    EXPECT_EQ(paths.component_count(), 1u);
  }
  if (c.family == Family::kTree) {
    EXPECT_EQ(paths.component_count(), c.graph.node_count());
    EXPECT_EQ(paths.certified_trees() + paths.uncertified_trees(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BridgeTreeIdentity, ::testing::Range<std::uint64_t>(1, kSeeds + 1),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "seed_" + std::to_string(info.param);
    });

TEST(BridgeTreeWorlds, SeedBudgetRunsBothBranches) {
  // A tree is built only where some source enters its component, so a
  // certified tree means a fold ran and an uncertified one means a seeded
  // Dijkstra fallback ran, in the identity test above.
  std::size_t certified = 0, uncertified = 0, one_component = 0, forests = 0;
  std::size_t tie_fallbacks = 0, stub_folds = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Case c = make_case(seed);
    const BridgeTreePaths paths(c.graph, c.sources);
    certified += paths.certified_trees();
    uncertified += paths.uncertified_trees();
    one_component += paths.component_count() == 1;
    forests += c.forest;
    if (c.family == Family::kTransitStub) stub_folds += paths.certified_trees();
    if (c.family == Family::kIntegerGrid || c.family == Family::kIntegerCycles)
      tie_fallbacks += paths.uncertified_trees();
  }
  EXPECT_GT(certified, 0u);
  EXPECT_GT(uncertified, 0u);
  EXPECT_GT(stub_folds, 0u);
  EXPECT_GT(tie_fallbacks, 0u);
  EXPECT_GT(one_component, 0u);
  EXPECT_GT(forests, 0u);
}

TEST(BridgeTreePaths, ToleranceIsDerivedFromTheGraph) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 6.0);
  const std::vector<NodeId> sources{0};
  const BridgeTreePaths paths(g, sources);
  EXPECT_EQ(paths.tolerance(), 4.0 * 3.0 * 8.0 * 0x1p-53);
  EXPECT_EQ(paths.component_count(), 3u);
}

TEST(BridgeTreePaths, ExactTieFallsBackToDijkstra) {
  // A square of unit edges entered at corner 0 over a bridge from node 4:
  // corner 2 is reached at 2 both ways round, a slack of exactly 0.
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 0, 1.0);
  g.add_edge(4, 0, 0.5);
  const std::vector<NodeId> sources{4};
  const BridgeTreePaths paths(g, sources);
  EXPECT_EQ(paths.component_count(), 2u);
  EXPECT_EQ(paths.certified_trees(), 0u);
  EXPECT_EQ(paths.uncertified_trees(), 1u);
  std::vector<double> row;
  paths.run(4, row);
  EXPECT_TRUE(same_bytes(row, dijkstra(g, 4)));
}

}  // namespace
}  // namespace ecgf::topology
