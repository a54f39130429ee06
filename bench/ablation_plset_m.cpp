// Ablation — the PLSet multiplier M (PLSet = M × (L-1) candidate caches).
//
// Larger M gives the greedy selector more candidates (better dispersion)
// at quadratically growing probing cost. This sweep quantifies both sides
// of that trade-off.
#include "bench_common.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 500;
  constexpr std::size_t kGroups = 50;
  constexpr std::size_t kLandmarks = 10;
  constexpr std::uint64_t kSeed = 2006;
  constexpr int kRuns = 20;

  std::cout << "Ablation — PLSet multiplier M (N=500, K=50, L=10)\n";
  core::EdgeNetworkParams params;
  params.cache_count = kCaches;
  params.topo = core::scaled_topology_for(kCaches);
  const auto network = core::build_edge_network(params, kSeed);
  core::GfCoordinator coordinator(network, net::ProberOptions{}, kSeed + 1);

  util::Table table({"M", "gicost_ms", "probes_per_run", "min_lm_dist_ms"});
  table.set_title("PLSet multiplier ablation");

  std::vector<double> dispersion;
  std::vector<double> probes;
  for (const std::size_t m : {1, 2, 3, 4, 6}) {
    core::SchemeConfig config = bench::paper_scheme_config();
    config.num_landmarks = kLandmarks;
    config.m_multiplier = m;
    const core::SlScheme scheme(config);

    double gicost_total = 0.0;
    double probes_total = 0.0;
    double min_dist_total = 0.0;
    for (int r = 0; r < kRuns; ++r) {
      const auto result = coordinator.run(scheme, kGroups);
      gicost_total += coordinator.average_group_interaction_cost(result);
      probes_total += static_cast<double>(result.probes_used);
      double min_dist = 1e300;
      for (std::size_t i = 0; i < result.landmarks.size(); ++i) {
        for (std::size_t j = i + 1; j < result.landmarks.size(); ++j) {
          min_dist = std::min(min_dist, network.rtt_ms(result.landmarks[i],
                                                       result.landmarks[j]));
        }
      }
      min_dist_total += min_dist;
    }
    table.add_row({static_cast<long long>(m), gicost_total / kRuns,
                   probes_total / kRuns, min_dist_total / kRuns});
    dispersion.push_back(min_dist_total / kRuns);
    probes.push_back(probes_total / kRuns);
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_plset_m/1", "full");
  report.check(
      "larger M yields better-dispersed landmarks (min pairwise distance up)",
      dispersion.back() > dispersion.front());
  report.check("larger M costs more probes", probes.back() > probes.front());
  return report.finish("");
}
