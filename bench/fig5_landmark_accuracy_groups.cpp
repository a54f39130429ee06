// Figure 5 — effect of landmark selection technique on clustering accuracy
// as the number of cache groups varies (500-cache network, L = 10).
//
// Expected shape: greedy (SL) beats random and mindist at every K, and
// GICost decreases as K grows (smaller groups ⇒ closer members).
#include "bench_common.h"

using namespace ecgf;

namespace {

double mean_gicost(core::GfCoordinator& coordinator,
                   landmark::SelectorKind selector, std::size_t k, int runs) {
  core::SchemeConfig config = bench::paper_scheme_config();
  config.selector = selector;
  // The paper does not state L for this experiment; L = 25 is past the
  // saturation point its Fig. 6 identifies (all selectors converge), so we
  // use L = 10 — Fig. 6's lowest setting — where selection quality shows.
  config.num_landmarks = 10;
  const core::SlScheme scheme(config);
  double total = 0.0;
  for (int r = 0; r < runs; ++r) {
    total +=
        coordinator.average_group_interaction_cost(coordinator.run(scheme, k));
  }
  return total / runs;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 500;
  constexpr std::uint64_t kSeed = 2006;
  constexpr int kRuns = 30;

  std::cout << "Fig. 5 — landmark selection vs clustering accuracy as K "
               "varies (N=500, L=10)\n";
  core::EdgeNetworkParams params;
  params.cache_count = kCaches;
  params.topo = core::scaled_topology_for(kCaches);
  const auto network = core::build_edge_network(params, kSeed);
  core::GfCoordinator coordinator(network, net::ProberOptions{}, kSeed + 1);

  util::Table table({"K", "greedy_ms", "random_ms", "mindist_ms"});
  table.set_title("Figure 5");

  bool greedy_best_everywhere = true;
  double prev_greedy = 0.0;
  bool decreasing = true;
  bool first = true;
  for (const std::size_t k : {10, 25, 50, 75, 100}) {
    const double greedy =
        mean_gicost(coordinator, landmark::SelectorKind::kGreedy, k, kRuns);
    const double random =
        mean_gicost(coordinator, landmark::SelectorKind::kRandom, k, kRuns);
    const double mindist =
        mean_gicost(coordinator, landmark::SelectorKind::kMinDist, k, kRuns);
    table.add_row(
        {static_cast<long long>(k), greedy, random, mindist});
    greedy_best_everywhere &= greedy <= random && greedy <= mindist;
    if (!first && greedy > prev_greedy) decreasing = false;
    prev_greedy = greedy;
    first = false;
  }
  bench::print_table(table);

  bench::Report report("ecgf-fig5_landmark_accuracy_groups/1", "full");
  report.check("greedy (SL) yields the best accuracy at every K",
               greedy_best_everywhere);
  report.check("greedy GICost decreases as groups get smaller (K up)",
               decreasing);
  return report.finish("");
}
