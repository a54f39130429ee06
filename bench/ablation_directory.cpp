// Ablation — group directory mechanism: exact beacon-point registration
// (Cache Clouds, the paper's substrate) vs Bloom-filter content summaries
// (Summary Cache). Sweeps the summary refresh interval to expose the
// staleness/precision trade-off.
#include "bench_common.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 200;
  constexpr std::size_t kGroups = 20;
  constexpr std::uint64_t kSeed = 2006;

  std::cout << "Ablation — beacon directory vs Bloom summaries (N=200, K=20)\n";
  const auto testbed =
      core::make_testbed(bench::paper_testbed_params(kCaches), kSeed);
  core::GfCoordinator coordinator(testbed.network, net::ProberOptions{},
                                  kSeed + 1);
  const core::SdslScheme scheme(bench::paper_scheme_config());
  const auto partition = coordinator.run(scheme, kGroups).partition();

  util::Table table({"directory", "latency_ms", "group_hit_pct",
                     "wasted_probes", "origin_fetches"});
  table.set_title("Directory mechanism ablation");

  double beacon_hit = 0.0;
  std::vector<double> summary_hits;
  {
    const auto report = core::simulate_partition(testbed, partition,
                                                 bench::paper_sim_config());
    beacon_hit = report.counts.group_hit_rate();
    table.add_row({std::string("beacon (exact)"), report.avg_latency_ms,
                   100.0 * beacon_hit, static_cast<long long>(0),
                   static_cast<long long>(report.counts.origin_fetches)});
  }
  for (const double refresh_s : {2.0, 10.0, 30.0}) {
    auto config = bench::paper_sim_config();
    config.directory = sim::DirectoryMode::kSummary;
    config.summary.refresh_interval_ms = refresh_s * 1000.0;
    const auto report = core::simulate_partition(testbed, partition, config);
    table.add_row({"summary " + util::format_fixed(refresh_s, 0) + "s",
                   report.avg_latency_ms,
                   100.0 * report.counts.group_hit_rate(),
                   static_cast<long long>(report.wasted_summary_probes),
                   static_cast<long long>(report.counts.origin_fetches)});
    summary_hits.push_back(report.counts.group_hit_rate());
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_directory/1", "full");
  report.check(
      "exact beacon directory achieves the highest group hit rate",
      beacon_hit >=
          *std::max_element(summary_hits.begin(), summary_hits.end()) - 1e-9);
  report.check("fresher summaries recover hit rate (2s beats 30s refresh)",
               summary_hits.front() > summary_hits.back());
  return report.finish("");
}
