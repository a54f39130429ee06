// Figure 9 — SL vs SDSL average cache latency on the 500-cache network as
// the number of cache groups varies.
//
// Expected shape: SDSL ≤ SL at every K (the server-distance-sensitive
// seeding overcomes the uniform trade-off of pure proximity grouping).
//
// The 10 (K, scheme) points share one testbed and run through the
// SweepRunner in parallel.
//
// --scheme=<name> swaps the comparator series (default sdsl) for any
// registered scheme — e.g. --scheme=ucc plots SL vs UCC across K.
#include <algorithm>

#include "bench_common.h"
#include "core/sweep.h"
#include "schemes/registry.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 500;
  constexpr std::uint64_t kSeed = 2006;
  const std::size_t k_values[] = {10, 25, 50, 75, 100};

  std::string comparator = "sdsl";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scheme=", 0) == 0) comparator = arg.substr(9);
  }
  const schemes::SchemeRegistry& registry = schemes::SchemeRegistry::builtin();
  if (!registry.contains(comparator)) {
    std::cerr << "fig9: unknown scheme '" << comparator
              << "'; registered schemes: " << registry.names_joined() << "\n";
    return 2;
  }
  const std::shared_ptr<const core::GroupingScheme> sl_scheme =
      registry.make("sl", bench::paper_scheme_config());
  const std::shared_ptr<const core::GroupingScheme> comp_scheme =
      registry.make(comparator, bench::paper_scheme_config());
  std::string comp_label = comparator;
  std::transform(comp_label.begin(), comp_label.end(), comp_label.begin(),
                 [](unsigned char ch) { return std::toupper(ch); });

  std::cout << "Fig. 9 — SL vs " << comp_label
            << " latency vs number of groups (N=500)\n";

  // Both schemes at one K share the coordinator seed → same probe noise.
  std::vector<core::SweepPoint> points;
  for (const std::size_t k : k_values) {
    for (const auto& scheme : {sl_scheme, comp_scheme}) {
      core::SweepPoint p;
      p.testbed = bench::paper_testbed_params(kCaches);
      p.testbed_seed = kSeed;
      p.coordinator_seed = kSeed + 1 + k;
      p.scheme = scheme;
      p.group_count = k;
      p.sim = bench::paper_sim_config();
      points.push_back(std::move(p));
    }
  }
  const auto results = core::SweepRunner().run(points);

  util::Table table({"K", "SL_ms", comp_label + "_ms", "improvement_pct"});
  table.set_title("Figure 9");

  int sdsl_wins = 0;
  int count = 0;
  for (std::size_t i = 0; i < std::size(k_values); ++i) {
    const auto& sl_report = results[i * 2].report;
    const auto& sdsl_report = results[i * 2 + 1].report;
    const double improvement =
        100.0 * (sl_report.avg_latency_ms - sdsl_report.avg_latency_ms) /
        sl_report.avg_latency_ms;
    table.add_row({static_cast<long long>(k_values[i]),
                   sl_report.avg_latency_ms, sdsl_report.avg_latency_ms,
                   improvement});
    if (sdsl_report.avg_latency_ms < sl_report.avg_latency_ms) ++sdsl_wins;
    ++count;
  }
  bench::print_table(table);

  if (comparator == "sdsl") {
    bench::shape_check("SDSL yields lower latency than SL at most K values",
                       sdsl_wins * 2 > count);
  } else {
    // A non-default comparator carries no paper claim — report the score.
    std::cout << "# comparator " << comp_label << " beat SL in " << sdsl_wins
              << "/" << count << " K values\n";
  }
  return 0;
}
