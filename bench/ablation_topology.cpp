// Ablation — topology robustness: do the paper's results depend on the
// hierarchical transit-stub structure? Re-runs the SL-vs-SDSL comparison
// on a scale-free Barabási–Albert topology with plane-derived latencies.
//
// Finding: they partly do — and for an instructive reason. In a BA graph
// with random embedding, paths route through hubs, so every cache sits at
// a roughly similar RTT from the origin (low server-distance coefficient
// of variation). SDSL's whole lever is server-distance heterogeneity, so
// with none available it degenerates to SL (parity), while on transit-stub
// topologies (high CV — like the real Internet) it wins Figs. 8/9.
#include "bench_common.h"
#include "sim/simulator.h"
#include "topology/attachment.h"
#include "util/stats.h"
#include "topology/barabasi_albert.h"

using namespace ecgf;

namespace {

/// Hand-built testbed over a BA graph (EdgeNetwork is transit-stub-bound).
struct BaTestbed {
  net::MatrixRttProvider provider;
  cache::Catalog catalog;
  workload::Trace trace;
};

BaTestbed make_ba_testbed(std::size_t cache_count, std::uint64_t seed) {
  util::Rng rng(seed);
  topology::BarabasiAlbertParams bp;
  bp.node_count = cache_count + 120;
  util::Rng topo_rng = rng.fork(1);
  const auto topo = topology::generate_barabasi_albert(bp, topo_rng);

  // Hosts attach to distinct random routers with a short last mile.
  topology::HostPlacement placement;
  util::Rng place_rng = rng.fork(2);
  const auto attach =
      place_rng.sample_indices(bp.node_count, cache_count + 1);
  for (std::size_t a : attach) {
    placement.attach_node.push_back(static_cast<topology::NodeId>(a));
    placement.last_mile_ms.push_back(place_rng.uniform(0.3, 1.5));
  }
  const auto full = topology::host_rtt_matrix(topo.graph, placement);
  net::MatrixRttProvider provider(net::DistanceMatrix::from_full(full));

  auto params = bench::paper_testbed_params(cache_count);
  util::Rng cat_rng = rng.fork(3);
  auto catalog = cache::Catalog::generate(params.catalog, cat_rng);
  auto wl = params.workload;
  wl.cache_count = cache_count;
  util::Rng trace_rng = rng.fork(4);
  auto trace = workload::generate_trace(wl, catalog, trace_rng);
  return BaTestbed{std::move(provider), std::move(catalog), std::move(trace)};
}

}  // namespace

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 200;
  constexpr std::uint64_t kSeed = 2006;

  std::cout << "Ablation — scale-free (Barabasi-Albert) topology "
               "(N=200, SL vs SDSL)\n";
  const auto testbed = make_ba_testbed(kCaches, kSeed);
  const auto server = static_cast<net::HostId>(kCaches);

  util::Table table({"K", "SL_ms", "SDSL_ms", "improvement_pct"});
  table.set_title("BA topology: SL vs SDSL");

  const core::SlScheme sl(bench::paper_scheme_config());
  const core::SdslScheme sdsl(bench::paper_scheme_config());

  int wins = 0, points = 0;
  for (const std::size_t k : {10, 20, 40}) {
    auto run_scheme = [&](const core::GroupingScheme& scheme,
                          std::uint64_t salt) {
      net::ProberOptions po;
      net::Prober prober(testbed.provider, po, util::Rng(kSeed + salt));
      util::Rng rng(kSeed + salt + 1);
      const auto result =
          scheme.form_groups(kCaches, server, k, prober, rng);
      auto config = bench::paper_sim_config();
      config.groups = result.partition();
      return sim::run_simulation(testbed.catalog, testbed.provider, server,
                                 std::move(config), testbed.trace);
    };
    const auto sl_report = run_scheme(sl, 10 * k);
    const auto sdsl_report = run_scheme(sdsl, 10 * k + 5);
    const double improvement =
        100.0 * (sl_report.avg_latency_ms - sdsl_report.avg_latency_ms) /
        sl_report.avg_latency_ms;
    table.add_row({static_cast<long long>(k), sl_report.avg_latency_ms,
                   sdsl_report.avg_latency_ms, improvement});
    if (sdsl_report.avg_latency_ms < sl_report.avg_latency_ms) ++wins;
    ++points;
  }
  bench::print_table(table);

  // Server-distance heterogeneity: coefficient of variation of the cache →
  // origin RTTs. On transit-stub this is high; here it should be low.
  util::Accumulator rtts;
  for (net::HostId c = 0; c < kCaches; ++c) {
    rtts.add(testbed.provider.rtt_ms(c, server));
  }
  const double cv = rtts.stddev() / rtts.mean();
  std::cout << "server-distance coefficient of variation: "
            << util::format_fixed(cv, 3) << "\n";

  (void)wins;
  (void)points;
  double worst_gap = 0.0;
  for (std::size_t r = 0; r < table.rows(); ++r) {
    worst_gap = std::max(worst_gap, std::abs(table.number_at(r, 3)));
  }
  bench::shape_check(
      "low server-distance heterogeneity => SDSL degenerates to SL (within 5%)",
      cv < 0.35 && worst_gap < 5.0);
  return 0;
}
