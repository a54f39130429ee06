#include "core/network_builder.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "topology/shortest_paths.h"
#include "util/expect.h"

namespace ecgf::core {

EdgeNetwork::EdgeNetwork(topology::TransitStubTopology topo,
                         topology::HostPlacement placement,
                         net::DistanceMatrix rtt, std::size_t cache_count)
    : topo_(std::move(topo)),
      placement_(std::move(placement)),
      provider_(std::move(rtt)),
      cache_count_(cache_count) {
  ECGF_EXPECTS(cache_count_ >= 1);
  ECGF_EXPECTS(provider_.host_count() == cache_count_ + 1);
  ECGF_EXPECTS(placement_.host_count() == cache_count_ + 1);
}

net::Prober EdgeNetwork::make_prober(const net::ProberOptions& options,
                                     std::uint64_t seed) const {
  return net::Prober(provider_, options, util::Rng(seed));
}

std::vector<std::uint32_t> EdgeNetwork::caches_by_server_distance() const {
  std::vector<std::uint32_t> order(cache_count_);
  std::iota(order.begin(), order.end(), 0u);
  const net::HostId os = server();
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double da = provider_.rtt_ms(a, os);
    const double db = provider_.rtt_ms(b, os);
    return da != db ? da < db : a < b;
  });
  return order;
}

std::vector<std::uint32_t> EdgeNetwork::nearest_caches(std::size_t n) const {
  ECGF_EXPECTS(n >= 1 && n <= cache_count_);
  auto order = caches_by_server_distance();
  order.resize(n);
  return order;
}

std::vector<std::uint32_t> EdgeNetwork::farthest_caches(std::size_t n) const {
  ECGF_EXPECTS(n >= 1 && n <= cache_count_);
  auto order = caches_by_server_distance();
  std::reverse(order.begin(), order.end());
  order.resize(n);
  return order;
}

topology::TransitStubParams scaled_topology_for(std::size_t cache_count) {
  topology::TransitStubParams p;
  // Defaults give 4·4·3·12 = 576 stub routers — enough for 500 caches. For
  // larger populations widen the stub domains.
  const std::size_t hosts = cache_count + 1;
  std::size_t stub_routers = static_cast<std::size_t>(p.transit_domains) *
                             p.transit_nodes_per_domain *
                             p.stub_domains_per_transit_node *
                             p.stub_nodes_per_domain;
  while (stub_routers < hosts) {
    p.stub_nodes_per_domain += 4;
    stub_routers = static_cast<std::size_t>(p.transit_domains) *
                   p.transit_nodes_per_domain *
                   p.stub_domains_per_transit_node * p.stub_nodes_per_domain;
  }
  return p;
}

namespace {

template <typename T>
net::BasicDistanceMatrix<T> fill_host_rtt_matrix(
    const topology::Graph& graph, const topology::HostPlacement& placement) {
  const std::size_t n = placement.host_count();
  ECGF_EXPECTS(n > 0);

  // Same Dijkstra plan as topology::host_rtt_matrix: one run per distinct
  // attachment router, in first-appearance order, so the distance rows are
  // bit-identical to the dense reference path.
  std::unordered_map<topology::NodeId, std::size_t> router_row;
  std::vector<topology::NodeId> distinct;
  for (topology::NodeId a : placement.attach_node) {
    if (router_row.emplace(a, distinct.size()).second) distinct.push_back(a);
  }
  const auto router_dist =
      topology::multi_source_shortest_paths(graph, distinct);
  // Each host's router row, resolved once instead of per pair.
  std::vector<const std::vector<double>*> host_dist(n);
  for (std::size_t j = 0; j < n; ++j) {
    host_dist[j] = &router_dist[router_row.at(placement.attach_node[j])];
  }

  // Fill each packed row in ascending order — one sequential front-to-back
  // pass over the buffer. The pair (j, i) with j < i uses host j's router
  // row and sums last_mile[j] + path + last_mile[i] in that order, exactly
  // as the dense builder's inner loop does, so every stored double matches
  // from_full(host_rtt_matrix(...)) bit for bit (rounded once to float in
  // the f32 instantiation).
  net::BasicDistanceMatrix<T> matrix(n);
  for (std::size_t i = 1; i < n; ++i) {
    const std::span<T> row = matrix.lower_row(i);
    for (std::size_t j = 0; j < i; ++j) {
      const double path = (*host_dist[j])[placement.attach_node[i]];
      ECGF_ASSERT(path != topology::kUnreachable);
      const double one_way =
          placement.last_mile_ms[j] + path + placement.last_mile_ms[i];
      row[j] = static_cast<T>(2.0 * one_way);
    }
  }
  return matrix;
}

}  // namespace

net::DistanceMatrix host_rtt_distance_matrix(
    const topology::Graph& graph, const topology::HostPlacement& placement) {
  return fill_host_rtt_matrix<double>(graph, placement);
}

net::DistanceMatrixF32 host_rtt_distance_matrix_f32(
    const topology::Graph& graph, const topology::HostPlacement& placement) {
  return fill_host_rtt_matrix<float>(graph, placement);
}

EdgeNetwork build_edge_network(const EdgeNetworkParams& params,
                               std::uint64_t seed) {
  ECGF_EXPECTS(params.cache_count >= 1);
  util::Rng rng(seed);
  util::Rng topo_rng = rng.fork(1);
  util::Rng place_rng = rng.fork(2);

  topology::TransitStubTopology topo =
      topology::generate_transit_stub(params.topo, topo_rng);
  topology::HostPlacement placement = topology::place_hosts(
      topo, params.cache_count + 1, params.placement, place_rng);
  net::DistanceMatrix matrix = host_rtt_distance_matrix(topo.graph, placement);
  return EdgeNetwork(std::move(topo), std::move(placement), std::move(matrix),
                     params.cache_count);
}

}  // namespace ecgf::core
