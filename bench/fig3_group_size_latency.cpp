// Figure 3 — effect of average cache group size on average client latency.
//
// Paper setup: 500-cache network, SL scheme, group sizes swept from 2 to
// 500 caches per group. Three series: all caches, the 50 caches nearest to
// the origin server, and the 50 farthest.
//
// Expected shape: all three curves are U-shaped (cooperation first helps,
// then interaction costs dominate), and the far-cache curve attains its
// minimum at a LARGER group size than the near-cache curve — the
// observation that motivates SDSL.
//
// The 8 K-points share one testbed and run through the SweepRunner.
#include "bench_common.h"
#include "core/sweep.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 500;
  constexpr std::uint64_t kSeed = 2006;
  const std::size_t k_values[] = {250, 100, 50, 25, 10, 5, 2, 1};

  std::cout << "Fig. 3 — avg latency vs avg group size (N=500, SL scheme)\n";
  const core::TestbedParams params = bench::paper_testbed_params(kCaches);

  const auto sl =
      std::make_shared<const core::SlScheme>(bench::paper_scheme_config());
  std::vector<core::SweepPoint> points;
  for (const std::size_t k : k_values) {
    core::SweepPoint p;
    p.testbed = params;
    p.testbed_seed = kSeed;
    p.coordinator_seed = kSeed + 1 + k;
    p.scheme = sl;
    p.group_count = k;
    p.sim = bench::paper_sim_config();
    points.push_back(std::move(p));
  }
  const auto results = core::SweepRunner().run(points);

  // Near/far subsets come from the same network the sweep built (equal
  // params + seed ⇒ identical placement).
  const core::EdgeNetwork network = core::make_testbed_network(params, kSeed);
  const auto near50 = network.nearest_caches(50);
  const auto far50 = network.farthest_caches(50);

  util::Table table({"avg_group_size", "K", "all_ms", "nearest50_ms",
                     "farthest50_ms", "group_hit_rate"});
  table.set_title("Figure 3");

  struct Row {
    double size;
    double all, near, far;
  };
  std::vector<Row> rows;

  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t k = k_values[i];
    const auto& report = results[i].report;
    const double avg_size =
        static_cast<double>(kCaches) / static_cast<double>(k);
    const double all = report.avg_latency_ms;
    const double near = core::subset_mean_latency(report, near50);
    const double far = core::subset_mean_latency(report, far50);
    table.add_row({avg_size, static_cast<long long>(k), all, near, far,
                   report.counts.group_hit_rate()});
    rows.push_back({avg_size, all, near, far});
  }
  bench::print_table(table);

  // Shape checks. U-shape: the minimum is strictly inside the sweep.
  auto argmin = [&](auto get) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (get(rows[i]) < get(rows[best])) best = i;
    }
    return best;
  };
  const std::size_t all_min = argmin([](const Row& r) { return r.all; });
  const std::size_t near_min = argmin([](const Row& r) { return r.near; });
  const std::size_t far_min = argmin([](const Row& r) { return r.far; });

  bench::shape_check("latency (all caches) is U-shaped in group size",
                     all_min > 0 && all_min + 1 < rows.size());
  bench::shape_check(
      "far caches prefer larger groups than near caches (min at larger size)",
      rows[far_min].size >= rows[near_min].size);
  bench::shape_check(
      "near caches' latency curve sits below far caches' curve",
      rows[near_min].near < rows[far_min].far);
  return 0;
}
