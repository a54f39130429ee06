// Ablation — SDSL's θ sensitivity parameter (Pr(Ec_j) ∝ 1/Dist(Ec_j,Os)^θ).
//
// θ = 0 degenerates to SL's uniform seeding; the paper predicts higher θ
// means more server-distance sensitivity. This sweep locates the useful
// regime and shows the effect is not an artifact of one θ choice.
//
// The 6 θ points share one testbed and run in parallel via the
// SweepRunner.
#include "bench_common.h"
#include "core/sweep.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 500;
  constexpr std::size_t kGroups = 50;
  constexpr std::uint64_t kSeed = 2006;
  const double thetas[] = {0.0, 0.5, 1.0, 2.0, 3.0, 4.0};

  std::cout << "Ablation — SDSL theta sweep (N=500, K=50)\n";

  std::vector<core::SweepPoint> points;
  for (std::size_t i = 0; i < std::size(thetas); ++i) {
    core::SweepPoint p;
    p.testbed = bench::paper_testbed_params(kCaches);
    p.testbed_seed = kSeed;
    p.coordinator_seed = kSeed + 1 + i;
    core::SchemeConfig config = bench::paper_scheme_config();
    config.theta = thetas[i];
    p.scheme = std::make_shared<const core::SdslScheme>(config);
    p.group_count = kGroups;
    p.sim = bench::paper_sim_config();
    points.push_back(std::move(p));
  }
  const auto results = core::SweepRunner().run(points);

  util::Table table(
      {"theta", "latency_ms", "gicost_ms", "group_hit_rate"});
  table.set_title("SDSL theta ablation");

  double theta0_latency = 0.0;
  double best_latency = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& report = results[i].report;
    table.add_row({thetas[i], report.avg_latency_ms,
                   results[i].gicost_ms.mean(),
                   report.counts.group_hit_rate()});
    if (thetas[i] == 0.0) theta0_latency = report.avg_latency_ms;
    if (best_latency == 0.0 || report.avg_latency_ms < best_latency) {
      best_latency = report.avg_latency_ms;
    }
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_theta/1", "full");
  report.check("some positive theta beats theta=0 (server-distance bias helps)",
               best_latency < theta0_latency);
  return report.finish("");
}
