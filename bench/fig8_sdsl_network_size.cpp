// Figure 8 — SL vs SDSL average cache latency as the network size varies.
//
// Paper setup: N = 100…500 caches; groups = 10 % and 20 % of N; the same
// 25 landmarks for both schemes.
//
// Expected shape: SDSL ≤ SL at every size and both group-count settings
// (paper: >27 % improvement at N = 500, K = 20 %·N).
//
// The 20 (N, K%, scheme) points run through the SweepRunner, fanned
// across ECGF_THREADS; output is identical at every thread count.
//
// --scheme=<name> swaps the comparator series (default sdsl) for any
// registered scheme — e.g. --scheme=geo plots SL vs GEO across sizes.
#include <algorithm>

#include "bench_common.h"
#include "core/sweep.h"
#include "schemes/registry.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::uint64_t kSeed = 2006;
  const std::size_t sizes[] = {100, 200, 300, 400, 500};
  const int pcts[] = {10, 20};

  std::string comparator = "sdsl";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scheme=", 0) == 0) comparator = arg.substr(9);
  }
  const schemes::SchemeRegistry& registry = schemes::SchemeRegistry::builtin();
  if (!registry.contains(comparator)) {
    std::cerr << "fig8: unknown scheme '" << comparator
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

  std::cout << "Fig. 8 — SL vs " << comp_label
            << " latency vs network size (K = 10% and 20% of N)\n";

  // Both schemes at one (N, pct) share the coordinator seed, so both see
  // the same probe-noise stream — the comparison isolates the scheme.
  std::vector<core::SweepPoint> points;
  for (const std::size_t n : sizes) {
    for (const int pct : pcts) {
      for (const auto& scheme : {sl_scheme, comp_scheme}) {
        core::SweepPoint p;
        p.testbed = bench::paper_testbed_params(n);
        p.testbed_seed = kSeed + n;
        p.coordinator_seed = kSeed + n * 100 + static_cast<std::uint64_t>(pct);
        p.scheme = scheme;
        p.group_count = n * pct / 100;
        p.sim = bench::paper_sim_config();
        points.push_back(std::move(p));
      }
    }
  }
  const auto results = core::SweepRunner().run(points);

  util::Table table(
      {"N", "K_pct", "SL_ms", comp_label + "_ms", "improvement_pct"});
  table.set_title("Figure 8");

  int wins = 0;
  int count = 0;
  std::size_t at = 0;
  for (const std::size_t n : sizes) {
    for (const int pct : pcts) {
      const auto& sl_report = results[at].report;
      const auto& sdsl_report = results[at + 1].report;
      at += 2;
      const double improvement =
          100.0 * (sl_report.avg_latency_ms - sdsl_report.avg_latency_ms) /
          sl_report.avg_latency_ms;
      table.add_row({static_cast<long long>(n), static_cast<long long>(pct),
                     sl_report.avg_latency_ms, sdsl_report.avg_latency_ms,
                     improvement});
      if (sdsl_report.avg_latency_ms < sl_report.avg_latency_ms) ++wins;
      ++count;
    }
  }
  bench::print_table(table);

  if (comparator == "sdsl") {
    bench::shape_check(
        "SDSL outperforms SL across network sizes and group-count settings",
        wins * 4 >= count * 3);  // at least 3/4 of configurations
  } else {
    // A non-default comparator carries no paper claim — report the score.
    std::cout << "# comparator " << comp_label << " beat SL in " << wins
              << "/" << count << " configurations\n";
  }
  return 0;
}
