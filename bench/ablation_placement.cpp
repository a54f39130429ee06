// Ablation — cooperative placement of peer-served documents: score-gated
// (Cache Clouds utility placement), always-replicate, never-replicate.
// Quantifies the duplication/hit-rate trade-off behind the paper's
// "utility-based document placement" substrate choice.
#include "bench_common.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 200;
  constexpr std::size_t kGroups = 20;
  constexpr std::uint64_t kSeed = 2006;

  std::cout << "Ablation — remote placement policy (N=200, K=20)\n";
  const auto testbed =
      core::make_testbed(bench::paper_testbed_params(kCaches), kSeed);
  core::GfCoordinator coordinator(testbed.network, net::ProberOptions{},
                                  kSeed + 1);
  const core::SdslScheme scheme(bench::paper_scheme_config());
  const auto partition = coordinator.run(scheme, kGroups).partition();

  util::Table table({"placement", "latency_ms", "local_hit_pct",
                     "group_hit_pct", "origin_fetches"});
  table.set_title("Remote placement ablation");

  struct Entry {
    const char* name;
    sim::RemotePlacement mode;
  };
  double gated_latency = 0.0, never_latency = 0.0, always_local = 0.0,
         never_local = 0.0;
  for (const Entry& e :
       {Entry{"score-gated", sim::RemotePlacement::kScoreGated},
        Entry{"always", sim::RemotePlacement::kAlways},
        Entry{"never", sim::RemotePlacement::kNever}}) {
    auto config = bench::paper_sim_config();
    config.remote_placement = e.mode;
    const auto report = core::simulate_partition(testbed, partition, config);
    table.add_row({std::string(e.name), report.avg_latency_ms,
                   100.0 * report.counts.local_hit_rate(),
                   100.0 * report.counts.group_hit_rate(),
                   static_cast<long long>(report.counts.origin_fetches)});
    if (e.mode == sim::RemotePlacement::kScoreGated) {
      gated_latency = report.avg_latency_ms;
    } else if (e.mode == sim::RemotePlacement::kNever) {
      never_latency = report.avg_latency_ms;
      never_local = report.counts.local_hit_rate();
    } else {
      always_local = report.counts.local_hit_rate();
    }
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_placement/1", "full");
  report.check(
      "replicating peer fetches raises local hit rate vs never-replicate",
      always_local > never_local);
  report.check("score-gated placement at least matches never-replicate latency",
               gated_latency <= never_latency * 1.02);
  return report.finish("");
}
