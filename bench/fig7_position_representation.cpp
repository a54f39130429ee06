// Figure 7 — feature-vector representation vs GNP Euclidean-space mapping.
//
// Paper setup: 500-cache network, the SAME 25 greedy landmarks for both
// representations, K-means clustering, K from 10 to 100; metric = average
// group interaction cost.
//
// Expected shape: the two curves track each other closely (either may win
// at a given K) — the simple feature vectors are sufficient for cache
// group formation.
#include <cmath>

#include "bench_common.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 500;
  constexpr std::uint64_t kSeed = 2006;
  constexpr int kRuns = 3;

  std::cout << "Fig. 7 — feature vectors vs GNP Euclidean clustering "
               "(N=500, L=25)\n";
  core::EdgeNetworkParams params;
  params.cache_count = kCaches;
  params.topo = core::scaled_topology_for(kCaches);
  const auto network = core::build_edge_network(params, kSeed);
  core::GfCoordinator coordinator(network, net::ProberOptions{}, kSeed + 1);

  core::SchemeConfig fv_config = bench::paper_scheme_config();
  const core::SlScheme fv_scheme(fv_config);

  core::SchemeConfig gnp_config = bench::paper_scheme_config();
  gnp_config.positions = core::PositionKind::kGnp;
  gnp_config.gnp.dimension = 7;
  const core::SlScheme gnp_scheme(gnp_config);

  util::Table table({"K", "feature_vector_ms", "gnp_ms", "gap_pct"});
  table.set_title("Figure 7");

  double max_gap_pct = 0.0;
  for (const std::size_t k : {10, 25, 50, 75, 100}) {
    double fv_total = 0.0;
    double gnp_total = 0.0;
    for (int r = 0; r < kRuns; ++r) {
      fv_total += coordinator.average_group_interaction_cost(
          coordinator.run(fv_scheme, k));
      gnp_total += coordinator.average_group_interaction_cost(
          coordinator.run(gnp_scheme, k));
    }
    const double fv = fv_total / kRuns;
    const double gnp = gnp_total / kRuns;
    const double gap = 100.0 * (fv - gnp) / gnp;
    table.add_row({static_cast<long long>(k), fv, gnp, gap});
    max_gap_pct = std::max(max_gap_pct, std::abs(gap));
  }
  bench::print_table(table);

  bench::Report report("ecgf-fig7_position_representation/1", "full");
  report.check(
      "feature vectors and GNP yield similar accuracy (within ~15% everywhere)",
      max_gap_pct < 15.0);
  return report.finish("");
}
