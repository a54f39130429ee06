// Ablation — clustering algorithm choice. The paper notes "any standard
// clustering algorithm may be similarly modified" (§4.1): we verify by
// swapping K-means for K-medoids over measured RTTs, with both uniform
// (SL-style) and server-distance-weighted (SDSL-style) seeding.
#include "bench_common.h"
#include "cluster/agglomerative.h"
#include "cluster/kmedoids.h"

using namespace ecgf;

namespace {

/// K-medoids grouping over a measured distance matrix, SL- or SDSL-seeded.
std::vector<std::vector<std::uint32_t>> kmedoids_partition(
    const core::EdgeNetwork& network, std::size_t k, double theta,
    std::uint64_t seed) {
  const std::size_t n = network.cache_count();
  net::ProberOptions probing;
  net::Prober prober = network.make_prober(probing, seed);

  // Measure the cache-to-cache distances the clustering will use.
  std::vector<std::vector<double>> measured(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      measured[i][j] = measured[j][i] =
          prober.measure_rtt_ms(static_cast<net::HostId>(i),
                                static_cast<net::HostId>(j));
    }
  }
  const cluster::DistanceFn dist = [&](std::size_t a, std::size_t b) {
    return measured[a][b];
  };

  std::vector<double> weights;
  if (theta > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = prober.measure_rtt_ms(static_cast<net::HostId>(i),
                                             network.server());
      weights.push_back(1.0 / std::pow(std::max(d, 1.0), theta));
    }
  }

  util::Rng rng(seed + 1);
  const auto result = cluster::kmedoids(n, k, dist, rng, weights);
  std::vector<std::vector<std::uint32_t>> groups;
  for (const auto& g : result.groups()) {
    if (g.empty()) continue;
    groups.emplace_back(g.begin(), g.end());
  }
  return groups;
}

double gicost_of(const core::EdgeNetwork& network,
                 const std::vector<std::vector<std::uint32_t>>& partition) {
  const cluster::DistanceFn icost = [&](std::size_t a, std::size_t b) {
    return network.rtt_ms(static_cast<net::HostId>(a),
                          static_cast<net::HostId>(b));
  };
  std::vector<std::vector<std::size_t>> groups;
  for (const auto& g : partition) groups.emplace_back(g.begin(), g.end());
  return cluster::average_group_interaction_cost(groups, icost);
}

}  // namespace

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 300;  // K-medoids measures all N² pairs
  constexpr std::size_t kGroups = 30;
  constexpr std::uint64_t kSeed = 2006;

  std::cout << "Ablation — K-means (landmarks) vs K-medoids (full matrix), "
               "uniform vs weighted seeding (N=300, K=30)\n";
  auto params = bench::paper_testbed_params(kCaches);
  const auto testbed = core::make_testbed(params, kSeed);
  const auto& network = testbed.network;
  core::GfCoordinator coordinator(network, net::ProberOptions{}, kSeed + 1);

  util::Table table({"algorithm", "seeding", "gicost_ms", "latency_ms"});
  table.set_title("Clustering algorithm ablation");

  double kmeans_gicost = 0.0;
  double kmedoids_gicost = 0.0;
  double sdsl_latency = 0.0;
  double sdsl_medoids_latency = 0.0;

  {
    const core::SlScheme scheme(bench::paper_scheme_config());
    const auto result = coordinator.run(scheme, kGroups);
    const auto report = core::simulate_partition(testbed, result.partition(),
                                                 bench::paper_sim_config());
    kmeans_gicost = coordinator.average_group_interaction_cost(result);
    table.add_row({std::string("kmeans"), std::string("uniform"),
                   kmeans_gicost, report.avg_latency_ms});
  }
  {
    const core::SdslScheme scheme(bench::paper_scheme_config());
    const auto result = coordinator.run(scheme, kGroups);
    const auto report = core::simulate_partition(testbed, result.partition(),
                                                 bench::paper_sim_config());
    sdsl_latency = report.avg_latency_ms;
    table.add_row({std::string("kmeans"), std::string("1/d^2"),
                   coordinator.average_group_interaction_cost(result),
                   report.avg_latency_ms});
  }
  {
    const auto partition = kmedoids_partition(network, kGroups, 0.0, kSeed + 7);
    const auto report = core::simulate_partition(testbed, partition,
                                                 bench::paper_sim_config());
    kmedoids_gicost = gicost_of(network, partition);
    table.add_row({std::string("kmedoids"), std::string("uniform"),
                   kmedoids_gicost, report.avg_latency_ms});
  }
  {
    // Complete-link agglomerative over measured RTTs (no seeding knob).
    net::Prober prober = network.make_prober(net::ProberOptions{}, kSeed + 9);
    const std::size_t n = network.cache_count();
    std::vector<std::vector<double>> measured(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        measured[i][j] = measured[j][i] =
            prober.measure_rtt_ms(static_cast<net::HostId>(i),
                                  static_cast<net::HostId>(j));
      }
    }
    const auto result = cluster::agglomerative(
        n, kGroups,
        [&](std::size_t a, std::size_t b) { return measured[a][b]; });
    std::vector<std::vector<std::uint32_t>> partition;
    for (const auto& g : result.groups(kGroups)) {
      if (!g.empty()) partition.emplace_back(g.begin(), g.end());
    }
    const auto report = core::simulate_partition(testbed, partition,
                                                 bench::paper_sim_config());
    table.add_row({std::string("agglomerative"), std::string("-"),
                   gicost_of(network, partition), report.avg_latency_ms});
  }
  {
    const auto partition = kmedoids_partition(network, kGroups, 2.0, kSeed + 8);
    const auto report = core::simulate_partition(testbed, partition,
                                                 bench::paper_sim_config());
    sdsl_medoids_latency = report.avg_latency_ms;
    table.add_row({std::string("kmedoids"), std::string("1/d^2"),
                   gicost_of(network, partition), report.avg_latency_ms});
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_clustering/1", "full");
  report.check(
      "landmark K-means tracks full-matrix K-medoids accuracy (within 25%)",
      kmeans_gicost < kmedoids_gicost * 1.25);
  report.check(
      "server-distance seeding also helps K-medoids (scheme generalises)",
      sdsl_medoids_latency < sdsl_latency * 1.3);
  return report.finish("");
}
