// Ablation — failure resilience of the cooperative network: a growing
// fraction of caches crashes mid-trace; measures how group hit rate and
// latency degrade, and how much traffic the beacon failover absorbs.
#include "bench_common.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 200;
  constexpr std::size_t kGroups = 20;
  constexpr std::uint64_t kSeed = 2006;

  std::cout << "Ablation — cache failures mid-trace (N=200, K=20, "
               "crashes at t = half-trace)\n";
  const auto testbed =
      core::make_testbed(bench::paper_testbed_params(kCaches), kSeed);
  core::GfCoordinator coordinator(testbed.network, net::ProberOptions{},
                                  kSeed + 1);
  const core::SdslScheme scheme(bench::paper_scheme_config());
  const auto grouping = coordinator.run(scheme, kGroups);
  const auto partition = grouping.partition();
  const double half = testbed.trace.duration_ms / 2.0;

  util::Table table({"failed_pct", "latency_ms", "group_hit_pct",
                     "origin_fetches", "failover_lookups"});
  table.set_title("Failure resilience");

  std::vector<double> hit_rates;
  std::vector<double> latencies;
  for (const int pct : {0, 10, 25, 50}) {
    auto config = bench::paper_sim_config();
    util::Rng rng(kSeed + static_cast<std::uint64_t>(pct));
    const std::size_t to_fail = kCaches * static_cast<std::size_t>(pct) / 100;
    for (std::size_t idx : rng.sample_indices(kCaches, to_fail)) {
      config.failures.push_back(
          {static_cast<cache::CacheIndex>(idx), half});
    }
    const auto report =
        core::simulate_partition(testbed, partition, config);
    table.add_row({static_cast<long long>(pct), report.avg_latency_ms,
                   100.0 * report.counts.group_hit_rate(),
                   static_cast<long long>(report.counts.origin_fetches),
                   static_cast<long long>(report.failover_lookups)});
    hit_rates.push_back(report.counts.group_hit_rate());
    latencies.push_back(report.avg_latency_ms);
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_failures/1", "full");
  report.check("hit rate degrades monotonically with failures",
               hit_rates.front() > hit_rates.back());
  report.check("latency rises with failures but service continues",
               latencies.back() > latencies.front());
  return report.finish("");
}
