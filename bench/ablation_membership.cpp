// Ablation — membership maintenance: after churn (caches leaving and
// rejoining), how much grouping quality does incremental centroid-based
// re-admission retain compared with a full re-formation, and how stable
// is the partition (Rand index)? Full re-clustering costs a fresh round
// of probing; incremental joins are free.
#include "bench_common.h"
#include "core/membership.h"

using namespace ecgf;

int main(int argc, char** argv) {
  // --trace-out=FILE / --prof-out=FILE enable the observability outputs.
  ecgf::obs::ObsSession obs_session(argc, argv);
  constexpr std::size_t kCaches = 300;
  constexpr std::size_t kGroups = 30;
  constexpr std::uint64_t kSeed = 2006;

  std::cout << "Ablation — incremental membership vs full re-formation "
               "(N=300, K=30, churn fraction swept)\n";
  core::EdgeNetworkParams params;
  params.cache_count = kCaches;
  params.topo = core::scaled_topology_for(kCaches);
  const auto network = core::build_edge_network(params, kSeed);
  core::GfCoordinator coordinator(network, net::ProberOptions{}, kSeed + 1);
  const core::SlScheme scheme(bench::paper_scheme_config());
  const auto base = coordinator.run(scheme, kGroups);

  const auto icost = [&](std::size_t a, std::size_t b) {
    return network.rtt_ms(static_cast<net::HostId>(a),
                          static_cast<net::HostId>(b));
  };
  auto gicost_of = [&](const std::vector<std::vector<std::uint32_t>>& p) {
    std::vector<std::vector<std::size_t>> groups;
    for (const auto& g : p) groups.emplace_back(g.begin(), g.end());
    return cluster::average_group_interaction_cost(groups, icost);
  };

  const double base_cost = gicost_of(base.partition());
  std::cout << "base formation GICost: " << util::format_fixed(base_cost, 3)
            << " ms (re-formation probing cost: " << base.probes_used
            << " probes per run)\n";

  util::Table table({"churned_pct", "incremental_gicost_ms",
                     "reformed_gicost_ms", "rand_index_vs_base"});
  table.set_title("Membership churn");

  bool incremental_close = true;
  for (const int pct : {10, 25, 50}) {
    core::MembershipManager mm(base, kCaches);
    util::Rng rng(kSeed + static_cast<std::uint64_t>(pct));
    const std::size_t churn = kCaches * static_cast<std::size_t>(pct) / 100;
    // Every churned cache leaves, then rejoins via nearest centroid.
    const auto leavers = rng.sample_indices(kCaches, churn);
    for (std::size_t c : leavers) mm.leave(static_cast<std::uint32_t>(c));
    for (std::size_t c : leavers) mm.join(static_cast<std::uint32_t>(c));

    const auto incremental = mm.active_partition();
    const double inc_cost = gicost_of(incremental);
    const double reformed_cost = gicost_of(
        coordinator.run(scheme, kGroups).partition());
    const double stability =
        core::rand_index(base.partition(), incremental, kCaches);
    table.add_row({static_cast<long long>(pct), inc_cost, reformed_cost,
                   stability});
    incremental_close &= inc_cost < reformed_cost * 1.25;
  }
  bench::print_table(table);

  bench::Report report("ecgf-ablation_membership/1", "full");
  report.check(
      "incremental re-admission stays within 25% of full re-formation "
      "quality at zero probing cost",
      incremental_close);
  return report.finish("");
}
