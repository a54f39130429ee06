// Ablation — flash crowds: the signature load pattern of the paper's
// sporting-event origin (sudden, globally correlated interest in a few
// documents). Cooperative groups should absorb the burst — one member's
// fetch serves the whole group — while isolated caches all hammer the
// origin.
#include "bench_common.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 200;
  constexpr std::size_t kGroups = 20;
  constexpr std::uint64_t kSeed = 2006;

  std::cout << "Ablation — flash crowd absorption (N=200, burst at "
               "t=120s..180s, 10 extra req/s/cache on 20 docs)\n";
  auto params = bench::paper_testbed_params(kCaches);
  params.workload.flash_crowd_enabled = true;
  params.workload.flash_crowd.start_ms = 120'000.0;
  params.workload.flash_crowd.duration_ms = 60'000.0;
  params.workload.flash_crowd.extra_rate_per_cache_per_s = 10.0;
  params.workload.flash_crowd.hot_docs = 20;
  const auto testbed = core::make_testbed(params, kSeed);

  core::GfCoordinator coordinator(testbed.network, net::ProberOptions{},
                                  kSeed + 1);
  const core::SdslScheme scheme(bench::paper_scheme_config());
  const auto grouped = coordinator.run(scheme, kGroups).partition();
  std::vector<std::vector<std::uint32_t>> isolated(kCaches);
  for (std::uint32_t c = 0; c < kCaches; ++c) isolated[c] = {c};

  util::Table table({"configuration", "latency_ms", "group_hit_pct",
                     "origin_fetches", "origin_fetches_per_kreq"});
  table.set_title("Flash crowd absorption");

  double grouped_origin_per_req = 0.0, isolated_origin_per_req = 0.0;
  double grouped_latency = 0.0, isolated_latency = 0.0;
  for (const bool cooperative : {true, false}) {
    const auto& partition = cooperative ? grouped : isolated;
    const auto report = core::simulate_partition(testbed, partition,
                                                 bench::paper_sim_config());
    const double per_kreq =
        1000.0 * static_cast<double>(report.counts.origin_fetches) /
        static_cast<double>(report.counts.total());
    table.add_row({std::string(cooperative ? "SDSL groups (K=20)"
                                           : "isolated caches"),
                   report.avg_latency_ms,
                   100.0 * report.counts.group_hit_rate(),
                   static_cast<long long>(report.counts.origin_fetches),
                   per_kreq});
    if (cooperative) {
      grouped_origin_per_req = per_kreq;
      grouped_latency = report.avg_latency_ms;
    } else {
      isolated_origin_per_req = per_kreq;
      isolated_latency = report.avg_latency_ms;
    }
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_flash_crowd/1", "full");
  report.check(
      "cooperative groups cut origin load per request under the flash crowd",
      grouped_origin_per_req < isolated_origin_per_req * 0.8);
  report.check("cooperative groups keep latency lower during the burst",
               grouped_latency < isolated_latency);
  return report.finish("");
}
