// Ablation — consistency maintenance: push invalidation (the paper's Cache
// Clouds setting) vs TTL expiry, sweeping the TTL. Quantifies the
// freshness/traffic/latency triangle that motivates cooperative
// consistency schemes for dynamic content.
#include "bench_common.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 200;
  constexpr std::size_t kGroups = 20;
  constexpr std::uint64_t kSeed = 2006;

  std::cout << "Ablation — push invalidation vs TTL consistency "
               "(N=200, K=20)\n";
  auto params = bench::paper_testbed_params(kCaches);
  params.catalog.hot_update_fraction = 0.3;  // dynamic-content heavy
  params.catalog.hot_update_rate = 0.1;
  const auto testbed = core::make_testbed(params, kSeed);
  core::GfCoordinator coordinator(testbed.network, net::ProberOptions{},
                                  kSeed + 1);
  const core::SdslScheme scheme(bench::paper_scheme_config());
  const auto partition = coordinator.run(scheme, kGroups).partition();

  util::Table table({"mode", "latency_ms", "hit_rate_pct", "stale_served_pct",
                     "invalidation_msgs"});
  table.set_title("Consistency ablation");

  std::uint64_t push_stale = 0;
  {
    const auto report = core::simulate_partition(testbed, partition,
                                                 bench::paper_sim_config());
    push_stale = report.stale_served;
    table.add_row({std::string("push-invalidation"), report.avg_latency_ms,
                   100.0 * report.counts.group_hit_rate(),
                   100.0 * static_cast<double>(report.stale_served) /
                       static_cast<double>(report.counts.total()),
                   static_cast<long long>(report.invalidations_pushed)});
  }

  std::vector<double> stale_pcts;
  for (const double ttl_s : {5.0, 15.0, 60.0}) {
    auto config = bench::paper_sim_config();
    config.consistency = sim::ConsistencyMode::kTtl;
    config.ttl_ms = ttl_s * 1000.0;
    const auto report = core::simulate_partition(testbed, partition, config);
    const double stale_pct = 100.0 *
                             static_cast<double>(report.stale_served) /
                             static_cast<double>(report.counts.total());
    table.add_row({"ttl " + util::format_fixed(ttl_s, 0) + "s",
                   report.avg_latency_ms,
                   100.0 * report.counts.group_hit_rate(), stale_pct,
                   static_cast<long long>(report.invalidations_pushed)});
    stale_pcts.push_back(stale_pct);
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_consistency/1", "full");
  report.check("push invalidation never serves stale content", push_stale == 0);
  report.check("longer TTLs serve more stale content",
               stale_pcts.back() > stale_pcts.front());
  return report.finish("");
}
