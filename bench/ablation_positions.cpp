// Ablation — position representation: raw feature vectors (the paper's
// choice) vs GNP Euclidean coordinates, Vivaldi spring coordinates, and
// Virtual Landmarks (PCA-reduced feature vectors) — all three systems the
// paper cites. Extends Fig. 7.
#include "bench_common.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 300;
  constexpr std::uint64_t kSeed = 2006;
  constexpr int kRuns = 3;

  std::cout << "Ablation — feature vectors vs GNP vs Vivaldi (N=300, L=25)\n";
  core::EdgeNetworkParams params;
  params.cache_count = kCaches;
  params.topo = core::scaled_topology_for(kCaches);
  const auto network = core::build_edge_network(params, kSeed);
  core::GfCoordinator coordinator(network, net::ProberOptions{}, kSeed + 1);

  core::SchemeConfig fv_cfg = bench::paper_scheme_config();
  core::SchemeConfig gnp_cfg = bench::paper_scheme_config();
  gnp_cfg.positions = core::PositionKind::kGnp;
  core::SchemeConfig viv_cfg = bench::paper_scheme_config();
  viv_cfg.positions = core::PositionKind::kVivaldi;
  core::SchemeConfig vl_cfg = bench::paper_scheme_config();
  vl_cfg.positions = core::PositionKind::kVirtualLandmarks;
  vl_cfg.virtual_landmarks.dimension = 5;

  const core::SlScheme fv(fv_cfg);
  const core::SlScheme gnp(gnp_cfg);
  const core::SlScheme vivaldi(viv_cfg);
  const core::SlScheme virtual_lm(vl_cfg);

  util::Table table(
      {"K", "feature_vector_ms", "gnp_ms", "vivaldi_ms", "virtual_lm_ms"});
  table.set_title("Position representation ablation");

  bool fv_competitive = true;
  for (const std::size_t k : {10, 30, 60}) {
    double f = 0.0, g = 0.0, v = 0.0, vl = 0.0;
    for (int r = 0; r < kRuns; ++r) {
      f += coordinator.average_group_interaction_cost(coordinator.run(fv, k));
      g += coordinator.average_group_interaction_cost(coordinator.run(gnp, k));
      v += coordinator.average_group_interaction_cost(
          coordinator.run(vivaldi, k));
      vl += coordinator.average_group_interaction_cost(
          coordinator.run(virtual_lm, k));
    }
    table.add_row({static_cast<long long>(k), f / kRuns, g / kRuns, v / kRuns,
                   vl / kRuns});
    fv_competitive &=
        (f / kRuns) < 1.2 * std::min({g / kRuns, v / kRuns, vl / kRuns});
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_positions/1", "full");
  report.check(
      "simple feature vectors stay competitive with both coordinate systems",
      fv_competitive);
  return report.finish("");
}
