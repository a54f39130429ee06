// Ablation — measurement overhead vs clustering quality: the paper's core
// motivation for landmarks is that learning the full N×N distance matrix
// "imposes significant measurement overheads on the network". This bench
// quantifies the trade: SL at several landmark counts (O(N·L) probes) vs
// clustering the fully measured matrix (O(N²) probes).
#include "bench_common.h"
#include "cluster/kmedoids.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 300;
  constexpr std::size_t kGroups = 30;
  constexpr std::uint64_t kSeed = 2006;
  constexpr int kRuns = 5;

  std::cout << "Ablation — probing cost vs clustering quality (N=300, K=30)\n";
  core::EdgeNetworkParams params;
  params.cache_count = kCaches;
  params.topo = core::scaled_topology_for(kCaches);
  const auto network = core::build_edge_network(params, kSeed);
  core::GfCoordinator coordinator(network, net::ProberOptions{}, kSeed + 1);

  util::Table table({"approach", "probes_per_formation", "gicost_ms"});
  table.set_title("Probing cost vs quality");

  double full_matrix_probes = 0.0;
  double full_matrix_gicost = 0.0;
  double sl25_probes = 0.0;
  double sl25_gicost = 0.0;
  double sl10_probes = 0.0;

  for (const std::size_t landmarks : {5, 10, 25}) {
    core::SchemeConfig config = bench::paper_scheme_config();
    config.num_landmarks = landmarks;
    const core::SlScheme scheme(config);
    double probes = 0.0;
    double gicost = 0.0;
    for (int r = 0; r < kRuns; ++r) {
      const auto result = coordinator.run(scheme, kGroups);
      probes += static_cast<double>(result.probes_used);
      gicost += coordinator.average_group_interaction_cost(result);
    }
    table.add_row({"SL, L=" + std::to_string(landmarks), probes / kRuns,
                   gicost / kRuns});
    if (landmarks == 25) {
      sl25_probes = probes / kRuns;
      sl25_gicost = gicost / kRuns;
    }
    if (landmarks == 10) sl10_probes = probes / kRuns;
  }

  // Full-matrix comparator: measure every pair, cluster with K-medoids.
  {
    double gicost_total = 0.0;
    double probes_total = 0.0;
    for (int r = 0; r < kRuns; ++r) {
      net::Prober prober =
          network.make_prober(net::ProberOptions{}, kSeed + 50 + r);
      std::vector<std::vector<double>> measured(
          kCaches, std::vector<double>(kCaches, 0.0));
      for (std::size_t i = 0; i < kCaches; ++i) {
        for (std::size_t j = i + 1; j < kCaches; ++j) {
          measured[i][j] = measured[j][i] =
              prober.measure_rtt_ms(static_cast<net::HostId>(i),
                                    static_cast<net::HostId>(j));
        }
      }
      util::Rng rng(kSeed + 60 + r);
      const auto result = cluster::kmedoids(
          kCaches, kGroups,
          [&](std::size_t a, std::size_t b) { return measured[a][b]; }, rng);
      std::vector<std::vector<std::size_t>> groups;
      for (const auto& g : result.groups()) {
        if (!g.empty()) groups.emplace_back(g.begin(), g.end());
      }
      gicost_total += cluster::average_group_interaction_cost(
          groups, [&](std::size_t a, std::size_t b) {
            return network.rtt_ms(static_cast<net::HostId>(a),
                                  static_cast<net::HostId>(b));
          });
      probes_total += static_cast<double>(prober.probes_sent());
    }
    full_matrix_probes = probes_total / kRuns;
    full_matrix_gicost = gicost_total / kRuns;
    table.add_row({std::string("full matrix + K-medoids"), full_matrix_probes,
                   full_matrix_gicost});
  }
  bench::print_table(table);

  const double probe_ratio_25 = full_matrix_probes / sl25_probes;
  const double probe_ratio_10 = full_matrix_probes / sl10_probes;
  const double quality_gap = (sl25_gicost - full_matrix_gicost) /
                             full_matrix_gicost;
  std::cout << "full-matrix probing cost is "
            << util::format_fixed(probe_ratio_25, 1) << "x SL(L=25) and "
            << util::format_fixed(probe_ratio_10, 1) << "x SL(L=10), for a "
            << util::format_fixed(100.0 * quality_gap, 1)
            << "% quality difference vs L=25. (The gap grows with N: O(N^2) "
               "full-matrix probes vs O(N*L) for landmarks.)\n";

  bench::Report report("ecgf-ablation_probing_cost/1", "full");
  report.check("landmarks (L=10) cut probing cost by an order of magnitude",
               probe_ratio_10 > 10.0);
  report.check(
      "landmark clustering (L=25) stays within 25% of full-matrix quality",
      quality_gap < 0.25);
  return report.finish("");
}
