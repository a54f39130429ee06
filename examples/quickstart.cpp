// Quickstart: reproduces the paper's worked example (Figs. 1–2) — a 6-cache
// network partitioned into K=3 groups with L=3 landmarks and M=2 — then
// shows the same pipeline on a generated 100-cache network.
//
// Usage: quickstart [--trace-out FILE] [--prof-out FILE]
#include <iostream>

#include "core/coordinator.h"
#include "core/experiment.h"
#include "net/distance_matrix.h"
#include "obs/session.h"
#include "util/table.h"

using namespace ecgf;

namespace {

/// The paper's Figure-1 distance matrix: hosts Ec0..Ec5 then Os (our host
/// convention puts the server last at index 6).
net::DistanceMatrix paper_example_matrix() {
  // Order: Ec0 Ec1 Ec2 Ec3 Ec4 Ec5 Os
  const double m[7][7] = {
      {0.0, 4.0, 17.0, 14.4, 17.0, 14.4, 12.0},
      {4.0, 0.0, 14.4, 11.3, 14.4, 11.3, 8.0},
      {17.0, 14.4, 0.0, 4.0, 17.0, 14.4, 12.0},
      {14.4, 11.3, 4.0, 0.0, 14.4, 11.3, 8.0},
      {17.0, 14.4, 17.0, 14.4, 0.0, 4.0, 12.0},
      {14.4, 11.3, 14.4, 11.3, 4.0, 0.0, 8.0},
      {12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 0.0},
  };
  std::vector<std::vector<double>> full(7, std::vector<double>(7));
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 7; ++j) full[i][j] = m[i][j];
  }
  return net::DistanceMatrix::from_full(full);
}

void run_paper_example() {
  std::cout << "=== Paper worked example (Figs. 1-2): 6 caches, K=3, L=3 ===\n";
  net::MatrixRttProvider provider(paper_example_matrix());
  net::ProberOptions probing;
  probing.jitter_sigma = 0.0;  // the paper's example uses exact distances
  net::Prober prober(provider, probing, util::Rng(1));

  core::SchemeConfig config;
  config.num_landmarks = 3;
  config.m_multiplier = 2;
  core::SlScheme scheme(config);

  util::Rng rng(7);
  const auto result =
      scheme.form_groups(/*cache_count=*/6, /*server=*/6, /*k=*/3, prober, rng);

  std::cout << "landmarks (host ids, 6 = Os):";
  for (auto lm : result.landmarks) std::cout << ' ' << lm;
  std::cout << "\nfeature vectors (rows = Ec0..Ec5, cols = landmark RTTs):\n";
  for (net::HostId c = 0; c < 6; ++c) {
    std::cout << "  Ec" << c << ": [";
    const auto fv = result.positions.coords(c);
    for (std::size_t d = 0; d < fv.size(); ++d) {
      std::cout << (d ? ", " : "") << util::format_fixed(fv[d], 1);
    }
    std::cout << "]\n";
  }
  std::cout << "groups:\n";
  for (const auto& g : result.groups) {
    std::cout << "  group " << g.id << ": {";
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      std::cout << (i ? ", " : "") << "Ec" << g.members[i];
    }
    std::cout << "}\n";
  }
}

void run_generated_network() {
  std::cout << "\n=== Generated 100-cache network, SL vs SDSL at K=10 ===\n";
  core::TestbedParams params;
  params.cache_count = 100;
  const core::Testbed testbed = core::make_testbed(params, /*seed=*/42);

  core::GfCoordinator coordinator(testbed.network, net::ProberOptions{},
                                  /*seed=*/99);
  util::Table table({"scheme", "avg GICost (ms)", "avg latency (ms)"});
  const core::SlScheme sl;
  const core::SdslScheme sdsl;
  const core::GroupingScheme* const schemes[] = {&sl, &sdsl};
  for (const core::GroupingScheme* scheme : schemes) {
    const auto result = coordinator.run(*scheme, 10);
    const double gicost =
        coordinator.average_group_interaction_cost(result);
    const auto report =
        core::simulate_partition(testbed, result.partition());
    table.add_row({std::string(scheme->name()), gicost, report.avg_latency_ms});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  obs::ObsSession obs_session(argc, argv);
  run_paper_example();
  run_generated_network();
  return 0;
}
