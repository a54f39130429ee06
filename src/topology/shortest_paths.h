// Shortest-path latency computation over the router graph.
//
// Kernel contract: every row `multi_source_shortest_paths` returns is
// byte-identical to `dijkstra(graph, source)`, at every thread count.
//
// Why a kernel may differ from the reference in how it works and still
// return the same doubles: floating-point addition of a positive latency
// is monotone (a <= b implies fl(a + w) <= fl(b + w)), so Dijkstra's
// value for a node is the MINIMUM over all paths of the path sum folded
// left to right from the source, whatever the heap order. Two kernels
// that return that minimum return the same bits.
//
// The bridge-tree kernel (`BridgeTreePaths`) uses this twice:
//
//  * Every path between two 2-edge-connected components crosses the same
//    bridges, so the minimum factors component by component: entering
//    component C over the bridge u→v starts C at y = dist[u] + w(u, v),
//    and the minimum inside C is monotone in y.
//  * For each entry node v of a component the kernel builds one
//    shortest-path tree inside the component with seed 0 (labels L) and
//    certifies it when every non-tree edge a→b has reduced-cost slack
//    L(a) + w(a, b) − L(b) > τ = 4·n·W·2⁻⁵³ (n nodes, W the sum of all
//    edge latencies: τ bounds the rounding of any two folds and the slack
//    itself). A certified tree's path is the minimum for ANY seed y, so a
//    source fills the component as dist[c] = dist[parent(c)] + w in
//    settle order. A component whose tree has a tie (slack <= τ) runs a
//    Dijkstra seeded with y at v instead. docs/performance.md has the
//    derivation.
//
// A graph without bridges is one component, where the kernel is one
// Dijkstra per source over a flat adjacency snapshot.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "topology/graph.h"

namespace ecgf::util {
class ThreadPool;
}

namespace ecgf::topology {

/// Sentinel for unreachable nodes.
inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Single-source shortest path latencies (Dijkstra, binary heap).
/// Returns one distance per node; kUnreachable where no path exists.
/// The reference kernel every other path is checked against.
std::vector<double> dijkstra(const Graph& graph, NodeId source);

/// The graph's bridge tree, prepared once for a set of sources: the
/// 2-edge-connected components, the bridges between them, and one
/// certified shortest-path tree per (component, entry node) that some
/// source enters the component through. Read-only after construction;
/// `run` may be called concurrently from any number of threads.
class BridgeTreePaths {
 public:
  /// `sources` only decides which trees are built; `run` is exact for
  /// any source (a missing tree means a seeded Dijkstra there).
  BridgeTreePaths(const Graph& graph, std::span<const NodeId> sources);

  /// Writes dijkstra(graph, source) into `out` (resized to node count).
  void run(NodeId source, std::vector<double>& out) const;

  std::size_t component_count() const { return bridge_offsets_.size() - 1; }
  /// Trees whose slack cleared τ: sources fill those components.
  std::size_t certified_trees() const { return fold_offsets_.size() - 1; }
  /// Trees with a tie (slack <= τ): sources run a seeded Dijkstra there.
  std::size_t uncertified_trees() const { return uncertified_; }
  /// τ = 4·n·W·2⁻⁵³, derived from the graph.
  double tolerance() const { return tolerance_; }

 private:
  struct Bridge {
    NodeId from;  ///< inside the component that lists it
    NodeId to;    ///< entry node of the next component
    double latency_ms;
  };
  struct FoldStep {
    NodeId node;
    NodeId parent;
    double latency_ms;
  };
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  void build_tree(NodeId entry, std::vector<double>& label,
                  std::vector<NodeId>& parent,
                  std::vector<double>& parent_latency);

  std::size_t node_count_ = 0;
  double tolerance_ = 0.0;
  std::size_t uncertified_ = 0;
  std::vector<std::uint32_t> component_;       ///< node → component
  std::vector<std::uint32_t> arc_offsets_;     ///< node → intra arcs
  std::vector<Neighbor> arcs_;                 ///< non-bridge arcs only
  std::vector<std::uint32_t> bridge_offsets_;  ///< component → bridges
  std::vector<Bridge> bridges_;                ///< leaving each component
  std::vector<std::uint32_t> fold_of_;         ///< entry node → tree, kNone
  std::vector<std::uint32_t> fold_offsets_;    ///< tree → steps
  std::vector<FoldStep> steps_;                ///< settle order, entry excluded
};

/// All-pairs shortest-path latencies from each node in `sources`.
/// Row i holds dijkstra(graph, sources[i]), byte for byte. Sources run in
/// parallel on `pool` (nullptr = the process-wide pool; ECGF_THREADS=1
/// keeps it serial) over one shared BridgeTreePaths; rows are returned in
/// input order, so the result is identical at every thread count.
std::vector<std::vector<double>> multi_source_shortest_paths(
    const Graph& graph, const std::vector<NodeId>& sources,
    util::ThreadPool* pool = nullptr);

}  // namespace ecgf::topology
