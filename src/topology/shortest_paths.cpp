#include "topology/shortest_paths.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "obs/profile.h"
#include "util/thread_pool.h"

namespace ecgf::topology {

namespace {

using HeapItem = std::pair<double, NodeId>;  // (distance, node)

/// Dijkstra over one component's arcs, seeded with `seed` at `entry`.
/// Only nodes reachable over `arcs` are touched; they must hold
/// kUnreachable on entry. `on_settle(u)` sees each node once, in settle
/// order; `on_improve(u, v, w)` sees every strict improvement of v via u.
template <typename OnSettle, typename OnImprove>
void settle_from(const std::uint32_t* offsets, const Neighbor* arcs,
                 NodeId entry, double seed, std::vector<HeapItem>& heap,
                 std::vector<double>& dist, OnSettle&& on_settle,
                 OnImprove&& on_improve) {
  const auto cmp = std::greater<HeapItem>{};
  dist[entry] = seed;
  heap.clear();
  heap.emplace_back(seed, entry);
  while (!heap.empty()) {
    const auto [d, u] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), cmp);
    heap.pop_back();
    if (d > dist[u]) continue;  // stale entry
    on_settle(u);
    const Neighbor* const end = arcs + offsets[u + 1];
    for (const Neighbor* it = arcs + offsets[u]; it != end; ++it) {
      const Neighbor& n = *it;
      const double nd = d + n.latency_ms;
      if (nd < dist[n.node]) {
        dist[n.node] = nd;
        on_improve(u, n.node, n.latency_ms);
        heap.emplace_back(nd, n.node);
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
}

}  // namespace

std::vector<double> dijkstra(const Graph& graph, NodeId source) {
  ECGF_EXPECTS(source < graph.node_count());
  std::vector<double> dist(graph.node_count(), kUnreachable);
  using Item = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const Neighbor& n : graph.neighbors(u)) {
      const double nd = d + n.latency_ms;
      if (nd < dist[n.node]) {
        dist[n.node] = nd;
        heap.emplace(nd, n.node);
      }
    }
  }
  return dist;
}

BridgeTreePaths::BridgeTreePaths(const Graph& graph,
                                 std::span<const NodeId> sources)
    : node_count_(graph.node_count()) {
  ECGF_PROF_SCOPE("topology.decompose");
  const std::size_t n = node_count_;

  // 1. Iterative Tarjan: a node whose low link equals its discovery time
  // heads a 2-edge-connected component, which is every node still open
  // above it on the stack; the edge to its DFS parent is a bridge.
  component_.assign(n, kNone);
  std::uint32_t components = 0;
  {
    std::vector<std::uint32_t> disc(n, 0), low(n, 0);
    struct Frame {
      NodeId node, parent;
      std::uint32_t next;
    };
    std::vector<Frame> dfs;
    std::vector<NodeId> open;
    std::uint32_t clock = 0;
    for (NodeId root = 0; root < n; ++root) {
      if (disc[root] != 0) continue;
      disc[root] = low[root] = ++clock;
      dfs.push_back({root, root, 0});
      open.push_back(root);
      while (!dfs.empty()) {
        Frame& top = dfs.back();
        const NodeId u = top.node;
        const auto adj = graph.neighbors(u);
        if (top.next < adj.size()) {
          const NodeId v = adj[top.next++].node;
          // Graphs have no parallel edges, so skipping the parent node
          // skips exactly the tree edge.
          if (v == top.parent) continue;
          if (disc[v] == 0) {
            disc[v] = low[v] = ++clock;
            open.push_back(v);
            dfs.push_back({v, u, 0});
          } else {
            low[u] = std::min(low[u], disc[v]);
          }
          continue;
        }
        const NodeId parent = top.parent;
        dfs.pop_back();
        if (!dfs.empty()) low[parent] = std::min(low[parent], low[u]);
        if (low[u] == disc[u]) {
          NodeId v;
          do {
            v = open.back();
            open.pop_back();
            component_[v] = components;
          } while (v != u);
          ++components;
        }
      }
    }
  }

  // 2. Arcs inside a component, in neighbour order, and the bridges
  // leaving each component.
  double total_latency = 0.0;
  for (const Edge& e : graph.edges()) total_latency += e.latency_ms;
  tolerance_ = std::ldexp(4.0 * static_cast<double>(n) * total_latency, -53);
  arc_offsets_.assign(n + 1, 0);
  bridge_offsets_.assign(components + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (const Neighbor& nb : graph.neighbors(u)) {
      if (component_[nb.node] == component_[u]) {
        arcs_.push_back(nb);
      } else {
        ++bridge_offsets_[component_[u] + 1];
      }
    }
    arc_offsets_[u + 1] = static_cast<std::uint32_t>(arcs_.size());
  }
  for (std::uint32_t c = 0; c < components; ++c) {
    bridge_offsets_[c + 1] += bridge_offsets_[c];
  }
  bridges_.resize(bridge_offsets_[components]);
  {
    std::vector<std::uint32_t> fill(bridge_offsets_.begin(),
                                    bridge_offsets_.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      for (const Neighbor& nb : graph.neighbors(u)) {
        if (component_[nb.node] != component_[u]) {
          bridges_[fill[component_[u]]++] = {u, nb.node, nb.latency_ms};
        }
      }
    }
  }

  // 3. Root each tree of the bridge forest and count the sources below
  // every component, so a tree is built only where a source enters.
  std::vector<std::uint32_t> up(components, kNone), root_of(components, kNone);
  std::vector<std::uint32_t> order;
  order.reserve(components);
  std::vector<std::size_t> below(components, 0);
  for (NodeId s : sources) {
    ECGF_EXPECTS(s < n);
    ++below[component_[s]];
  }
  for (std::uint32_t r = 0; r < components; ++r) {
    if (root_of[r] != kNone) continue;
    root_of[r] = r;
    order.push_back(r);
    for (std::size_t i = order.size() - 1; i < order.size(); ++i) {
      const std::uint32_t c = order[i];
      for (std::uint32_t b = bridge_offsets_[c]; b < bridge_offsets_[c + 1];
           ++b) {
        const std::uint32_t d = component_[bridges_[b].to];
        if (root_of[d] != kNone) continue;
        root_of[d] = r;
        up[d] = c;
        order.push_back(d);
      }
    }
  }
  for (std::size_t i = order.size(); i-- > 0;) {
    if (up[order[i]] != kNone) below[up[order[i]]] += below[order[i]];
  }

  // 4. One tree per entry node of a multi-node component that a source
  // on the far side of its bridge walks through (a one-node component
  // is its own seeded Dijkstra: one push, one pop).
  fold_of_.assign(n, kNone);
  fold_offsets_.assign(1, 0);
  std::vector<char> tried(n, 0);
  std::vector<double> label(n, kUnreachable);
  std::vector<NodeId> parent(n);
  std::vector<double> parent_latency(n);
  for (std::uint32_t c = 0; c < components; ++c) {
    for (std::uint32_t b = bridge_offsets_[c]; b < bridge_offsets_[c + 1];
         ++b) {
      const NodeId entry = bridges_[b].to;
      const std::uint32_t d = component_[entry];
      const std::size_t behind =
          up[d] == c ? below[root_of[c]] - below[d] : below[c];
      const bool alone = arc_offsets_[entry] == arc_offsets_[entry + 1];
      if (alone || behind == 0 || tried[entry]) continue;
      tried[entry] = 1;
      build_tree(entry, label, parent, parent_latency);
    }
  }
}

void BridgeTreePaths::build_tree(NodeId entry, std::vector<double>& label,
                                 std::vector<NodeId>& parent,
                                 std::vector<double>& parent_latency) {
  std::vector<HeapItem> heap;
  std::vector<NodeId> settled;
  parent[entry] = entry;
  settle_from(
      arc_offsets_.data(), arcs_.data(), entry, 0.0, heap, label,
      [&](NodeId u) { settled.push_back(u); },
      [&](NodeId u, NodeId v, double w) {
        parent[v] = u;
        parent_latency[v] = w;
      });

  // Smallest reduced-cost slack over the non-tree edges, both directions.
  double slack = kUnreachable;
  for (NodeId a : settled) {
    for (std::uint32_t i = arc_offsets_[a]; i < arc_offsets_[a + 1]; ++i) {
      const Neighbor& nb = arcs_[i];
      if (parent[nb.node] == a || parent[a] == nb.node) continue;
      slack = std::min(slack, label[a] + nb.latency_ms - label[nb.node]);
    }
  }
  if (slack > tolerance_) {
    fold_of_[entry] = static_cast<std::uint32_t>(fold_offsets_.size() - 1);
    for (std::size_t i = 1; i < settled.size(); ++i) {
      const NodeId v = settled[i];
      steps_.push_back({v, parent[v], parent_latency[v]});
    }
    fold_offsets_.push_back(static_cast<std::uint32_t>(steps_.size()));
  } else {
    ++uncertified_;
  }
  for (NodeId u : settled) label[u] = kUnreachable;
}

void BridgeTreePaths::run(NodeId source, std::vector<double>& out) const {
  ECGF_EXPECTS(source < node_count_);
  // Per-thread working set: fully re-initialised per call, never shared.
  thread_local std::vector<HeapItem> heap;
  thread_local std::vector<std::pair<std::uint32_t, std::uint32_t>> walk;
  const auto no_op = [](auto&&...) {};
  out.assign(node_count_, kUnreachable);
  settle_from(arc_offsets_.data(), arcs_.data(), source, 0.0, heap, out,
              no_op, no_op);

  // Walk the bridge tree outward: (component, component entered from).
  walk.clear();
  walk.emplace_back(component_[source], kNone);
  while (!walk.empty()) {
    const auto [c, from] = walk.back();
    walk.pop_back();
    for (std::uint32_t b = bridge_offsets_[c]; b < bridge_offsets_[c + 1];
         ++b) {
      const Bridge& bridge = bridges_[b];
      const std::uint32_t next = component_[bridge.to];
      if (next == from) continue;
      const double y = out[bridge.from] + bridge.latency_ms;
      const std::uint32_t f = fold_of_[bridge.to];
      if (f == kNone) {
        settle_from(arc_offsets_.data(), arcs_.data(), bridge.to, y, heap,
                    out, no_op, no_op);
      } else {
        out[bridge.to] = y;
        for (std::uint32_t s = fold_offsets_[f]; s < fold_offsets_[f + 1];
             ++s) {
          const FoldStep& step = steps_[s];
          out[step.node] = out[step.parent] + step.latency_ms;
        }
      }
      walk.emplace_back(next, c);
    }
  }
}

std::vector<std::vector<double>> multi_source_shortest_paths(
    const Graph& graph, const std::vector<NodeId>& sources,
    util::ThreadPool* pool) {
  ECGF_PROF_SCOPE("topology.dijkstra");
  if (pool == nullptr) pool = &util::global_pool();
  const BridgeTreePaths paths(graph, sources);
  std::vector<std::vector<double>> out(sources.size());
  pool->parallel_for(sources.size(),
                     [&](std::size_t i) { paths.run(sources[i], out[i]); });
  return out;
}

}  // namespace ecgf::topology
