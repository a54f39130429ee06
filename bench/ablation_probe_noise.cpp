// Ablation — probing noise. The schemes only ever see measured RTTs; this
// sweep quantifies how clustering accuracy degrades as probe jitter grows,
// and how much multi-probe averaging buys back.
#include "bench_common.h"

using namespace ecgf;

namespace {

double mean_gicost(const core::EdgeNetwork& network, double sigma,
                   std::size_t probes, int runs, std::uint64_t seed) {
  net::ProberOptions probing;
  probing.jitter_sigma = sigma;
  probing.probes_per_measurement = probes;
  core::GfCoordinator coordinator(network, probing, seed);
  core::SchemeConfig config = bench::paper_scheme_config();
  config.num_landmarks = 10;
  const core::SlScheme scheme(config);
  double total = 0.0;
  for (int r = 0; r < runs; ++r) {
    total += coordinator.average_group_interaction_cost(
        coordinator.run(scheme, 50));
  }
  return total / runs;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 500;
  constexpr std::uint64_t kSeed = 2006;
  constexpr int kRuns = 15;

  std::cout << "Ablation — probe jitter vs clustering accuracy "
               "(N=500, K=50, L=10)\n";
  core::EdgeNetworkParams params;
  params.cache_count = kCaches;
  params.topo = core::scaled_topology_for(kCaches);
  const auto network = core::build_edge_network(params, kSeed);

  util::Table table({"jitter_sigma", "gicost_1probe_ms", "gicost_5probes_ms"});
  table.set_title("Probe noise ablation");

  std::vector<double> one_probe;
  std::vector<double> five_probes;
  for (const double sigma : {0.0, 0.1, 0.2, 0.4, 0.8}) {
    const double g1 = mean_gicost(network, sigma, 1, kRuns, kSeed + 1);
    const double g5 = mean_gicost(network, sigma, 5, kRuns, kSeed + 2);
    table.add_row({sigma, g1, g5});
    one_probe.push_back(g1);
    five_probes.push_back(g5);
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_probe_noise/1", "full");
  report.check("heavy jitter degrades clustering accuracy",
               one_probe.back() > one_probe.front());
  report.check("multi-probe averaging recovers accuracy under heavy jitter",
               five_probes.back() < one_probe.back());
  return report.finish("");
}
