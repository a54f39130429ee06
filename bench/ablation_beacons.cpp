// Ablation — beacon points per group directory: 1 (single coordinator)
// up to every member. More beacons spread directory load and shorten the
// requester→beacon hop (documents hash to more, often closer, members).
//
// All 5 points share testbed, scheme, and coordinator seed, so every one
// simulates the *same* partition — only the beacon count varies. The
// SweepRunner fans them across the thread pool.
#include "bench_common.h"
#include "core/sweep.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 200;
  constexpr std::size_t kGroups = 10;  // larger groups → beacon placement matters
  constexpr std::uint64_t kSeed = 2006;
  const std::size_t beacon_counts[] = {1, 2, 3, 5, 0 /* all members */};

  std::cout << "Ablation — beacons per group (N=200, K=10)\n";

  const auto sdsl =
      std::make_shared<const core::SdslScheme>(bench::paper_scheme_config());
  std::vector<core::SweepPoint> points;
  for (const std::size_t beacons : beacon_counts) {
    core::SweepPoint p;
    p.testbed = bench::paper_testbed_params(kCaches);
    p.testbed_seed = kSeed;
    p.coordinator_seed = kSeed + 1;
    p.scheme = sdsl;
    p.group_count = kGroups;
    p.sim = bench::paper_sim_config();
    p.sim.beacons_per_group = beacons;
    points.push_back(std::move(p));
  }
  const auto results = core::SweepRunner().run(points);

  util::Table table({"beacons", "latency_ms", "group_hit_pct"});
  table.set_title("Beacon count ablation");

  std::vector<double> latencies;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& report = results[i].report;
    const std::string label =
        beacon_counts[i] == 0 ? "all" : std::to_string(beacon_counts[i]);
    table.add_row({label, report.avg_latency_ms,
                   100.0 * report.counts.group_hit_rate()});
    latencies.push_back(report.avg_latency_ms);
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_beacons/1", "full");
  report.check(
      "beacon count shifts latency modestly (within 25% across settings)",
      *std::max_element(latencies.begin(), latencies.end()) <
          1.25 * *std::min_element(latencies.begin(), latencies.end()));
  return report.finish("");
}
