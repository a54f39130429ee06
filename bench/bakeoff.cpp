// Formation-scheme bake-off: every scheme in schemes::SchemeRegistry
// (sl, sdsl, random, geo, proximity, ucc) head-to-head at N ∈ {256, 4k,
// 32k} on the same testbed, workload, and probe-noise regime — hit rate,
// miss latency, group interaction cost, and formation cost (probes +
// wall time), each under a quiet run AND a churn run with scripted
// leave/rejoin pairs.
//
// Provider policy follows bench/scaling's memory ladder: a real GT-ITM
// topology matrix up to 4k caches (f64 below 4k, f32 at 4k), and the
// O(1)-state geometric net::PlaneRttProvider at 32k (a packed matrix
// there would be ~8.6 GB). Formation runs directly against a net::Prober
// over the provider — exactly what core::GfCoordinator does, without
// requiring the full EdgeNetwork build.
//
// Writes BENCH_bakeoff.json (schema ecgf-bench-bakeoff/1). --smoke
// shrinks the sweep for CI; --scheme=<name> restricts the table to one
// registry key (unknown names list the registered schemes and exit 2);
// --json-out=FILE sets the output path.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/quality.h"
#include "core/network_builder.h"
#include "net/distance_matrix.h"
#include "net/prober.h"
#include "net/synthetic.h"
#include "schemes/registry.h"
#include "sim/simulator.h"
#include "util/table.h"
#include "workload/trace.h"

namespace ecgf {
namespace {

/// FNV-1a of a registry name: keys a scheme's RNG on the scheme itself.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr std::size_t kDocuments = 4096;
constexpr std::size_t kHotDocuments = 64;

/// Same deterministic synthetic workload as bench/scaling: evenly spaced
/// requests hashed over the caches, half the traffic on a hot-document
/// head so cooperative hits actually occur.
workload::Trace make_trace(std::size_t caches, double duration_ms,
                           std::size_t total) {
  workload::Trace trace;
  trace.duration_ms = duration_ms;
  trace.requests.reserve(total);
  const double step = duration_ms / static_cast<double>(total + 1);
  for (std::size_t k = 0; k < total; ++k) {
    const std::uint64_t h = mix64(0xBA0Full ^ k);
    const std::uint32_t cache = static_cast<std::uint32_t>(h % caches);
    const std::uint64_t hd = mix64(h);
    const std::uint32_t doc =
        (hd & 1) ? static_cast<std::uint32_t>((hd >> 1) % kHotDocuments)
                 : static_cast<std::uint32_t>((hd >> 1) % kDocuments);
    trace.requests.push_back({step * static_cast<double>(k + 1), cache, doc});
  }
  return trace;
}

cache::Catalog make_catalog() {
  std::vector<cache::DocumentInfo> docs(kDocuments);
  for (auto& d : docs) d = {1'000, 20.0, 0.0};
  return cache::Catalog(std::move(docs));
}

/// Scripted churn: `pairs` leave/rejoin pairs spread over the middle of
/// the run (post-warmup), caches picked by hash. A departed cache rejoins
/// cold after ~8% of the horizon.
std::vector<sim::MembershipChange> make_churn(std::size_t caches,
                                              double duration_ms,
                                              std::size_t pairs) {
  std::vector<sim::MembershipChange> events;
  events.reserve(pairs * 2);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto cache = static_cast<cache::CacheIndex>(
        mix64(0xC4A1ull ^ i) % caches);
    const double t =
        duration_ms * (0.25 + 0.55 * static_cast<double>(i) /
                                  static_cast<double>(pairs));
    events.push_back({sim::MembershipChange::Kind::kLeave, cache, t});
    events.push_back(
        {sim::MembershipChange::Kind::kJoin, cache, t + duration_ms * 0.08});
  }
  std::sort(events.begin(), events.end(),
            [](const sim::MembershipChange& a, const sim::MembershipChange& b) {
              return a.time_ms < b.time_ms;
            });
  return events;
}

struct ArmResult {
  double hit_rate = 0.0;
  double avg_latency_ms = 0.0;
  double avg_miss_latency_ms = 0.0;
  std::uint64_t leaves = 0;
  std::uint64_t joins = 0;
};

struct Entry {
  std::size_t n = 0;
  std::size_t k = 0;
  std::string provider;
  std::string scheme;
  std::size_t formation_probes = 0;
  double formation_wall_ms = 0.0;
  double gicost_ms = 0.0;
  std::size_t max_group = 0;
  std::size_t min_group = 0;
  bool partition_valid = false;
  ArmResult quiet;
  ArmResult churn;
};

bool valid_partition(const core::GroupingResult& result, std::size_t n) {
  std::vector<bool> seen(n, false);
  std::size_t covered = 0;
  for (const core::CacheGroup& g : result.groups) {
    if (g.members.empty()) return false;
    for (net::HostId m : g.members) {
      if (m >= n || seen[m]) return false;
      seen[m] = true;
      ++covered;
    }
  }
  return covered == n;
}

ArmResult run_sim(const cache::Catalog& catalog, const net::RttProvider& rtt,
                  std::size_t n, const core::GroupingResult& grouping,
                  const workload::Trace& trace,
                  const std::vector<sim::MembershipChange>& churn) {
  sim::SimulationConfig config;
  config.groups = grouping.partition();
  config.cache_capacity_bytes = 64'000;  // the hot-doc head fits
  config.policy = cache::PolicyKind::kLru;
  config.beacons_per_group = 3;
  config.warmup_fraction = 0.2;
  config.membership_events = churn;
  sim::Simulator sim(catalog, rtt, static_cast<net::HostId>(n), config);
  const sim::SimulationReport report = sim.run(trace);
  ArmResult arm;
  arm.hit_rate = report.counts.group_hit_rate();
  arm.avg_latency_ms = report.avg_latency_ms;
  arm.avg_miss_latency_ms = report.avg_miss_latency_ms;
  arm.leaves = report.leaves_applied;
  arm.joins = report.joins_applied;
  return arm;
}

}  // namespace
}  // namespace ecgf

int main(int argc, char** argv) {
  using namespace ecgf;
  obs::ObsSession obs_session(argc, argv);
  bool smoke = false;
  std::string json_out = "BENCH_bakeoff.json";
  std::string only_scheme;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg.rfind("--json-out=", 0) == 0) json_out = arg.substr(11);
    if (arg.rfind("--scheme=", 0) == 0) only_scheme = arg.substr(9);
  }

  const schemes::SchemeRegistry& registry = schemes::SchemeRegistry::builtin();
  if (!only_scheme.empty() && !registry.contains(only_scheme)) {
    std::cerr << "bakeoff: unknown scheme '" << only_scheme
              << "'; registered schemes: " << registry.names_joined() << "\n";
    return 2;
  }
  std::vector<std::string> scheme_names;
  for (const std::string& name : registry.names()) {
    if (only_scheme.empty() || name == only_scheme) {
      scheme_names.push_back(name);
    }
  }

  struct Case {
    std::size_t n;
    std::size_t requests;
    std::size_t churn_pairs;
  };
  const std::vector<Case> cases =
      smoke ? std::vector<Case>{{64, 6'000, 8}, {256, 12'000, 24}}
            : std::vector<Case>{{256, 30'000, 32},
                                {4'096, 60'000, 64},
                                {32'768, 80'000, 64}};
  constexpr double kDurationMs = 10'000.0;

  std::cout << "Formation-scheme bake-off (" << (smoke ? "smoke" : "full")
            << "; schemes: ";
  for (std::size_t i = 0; i < scheme_names.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << scheme_names[i];
  }
  std::cout << ")\n";

  const cache::Catalog catalog = make_catalog();
  const core::SchemeConfig scheme_config = bench::paper_scheme_config();
  net::ProberOptions probing;
  probing.probes_per_measurement = 1;  // keeps the 32k anchor sweeps honest
                                       // AND tractable; same regime for all

  std::vector<Entry> entries;
  for (const Case& c : cases) {
    // Provider ladder (see header comment).
    std::unique_ptr<core::EdgeNetwork> network;
    std::unique_ptr<net::RttProvider> owned_rtt;
    const net::RttProvider* rtt = nullptr;
    std::string provider;
    if (c.n < 4'096) {
      core::EdgeNetworkParams net_params;
      net_params.cache_count = c.n;
      net_params.topo = core::scaled_topology_for(c.n);
      network = std::make_unique<core::EdgeNetwork>(
          core::build_edge_network(net_params, /*seed=*/2006));
      rtt = &network->rtt();
      provider = "matrix-f64";
    } else if (c.n == 4'096) {
      core::EdgeNetworkParams net_params;
      net_params.cache_count = c.n;
      net_params.topo = core::scaled_topology_for(c.n);
      auto built = core::build_edge_network(net_params, /*seed=*/2006);
      owned_rtt = std::make_unique<net::MatrixRttProviderF32>(
          core::host_rtt_distance_matrix_f32(built.topology().graph,
                                             built.placement()));
      rtt = owned_rtt.get();
      provider = "matrix-f32";
    } else {
      net::PlaneOptions plane;
      plane.width_ms = 120.0;
      owned_rtt = std::make_unique<net::PlaneRttProvider>(c.n + 1, plane);
      rtt = owned_rtt.get();
      provider = "plane-ondemand";
    }

    const std::size_t k = std::max<std::size_t>(8, c.n / 64);
    const workload::Trace trace = make_trace(c.n, kDurationMs, c.requests);
    const std::vector<sim::MembershipChange> churn =
        make_churn(c.n, kDurationMs, c.churn_pairs);
    const auto icost = [&](std::size_t a, std::size_t b) {
      return rtt->rtt_ms(static_cast<net::HostId>(a),
                         static_cast<net::HostId>(b));
    };
    std::cout << "N=" << c.n << " (" << provider << ", K=" << k << ", "
              << trace.requests.size() << " requests, " << c.churn_pairs
              << " churn pairs)\n";

    // Every scheme at this N faces the same probe-jitter stream, keyed on
    // N alone; the scheme RNG is keyed on N and the registry name (as
    // GfCoordinator::run forks it separately). A row therefore never
    // depends on which other schemes ran.
    const std::uint64_t case_seed = 0xBA0Full ^ (c.n * 1'000'003ull);
    for (const std::string& name : scheme_names) {
      const std::unique_ptr<core::GroupingScheme> scheme =
          registry.make(name, scheme_config);

      Entry e;
      e.n = c.n;
      e.k = k;
      e.provider = provider;
      e.scheme = name;

      net::Prober prober(*rtt, probing, util::Rng(case_seed).fork(1));
      util::Rng scheme_rng = util::Rng(case_seed ^ fnv1a(name)).fork(7919);
      const auto t0 = std::chrono::steady_clock::now();
      const core::GroupingResult grouping = scheme->form_groups(
          c.n, static_cast<net::HostId>(c.n), k, prober, scheme_rng);
      const auto t1 = std::chrono::steady_clock::now();
      e.formation_wall_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      e.formation_probes = grouping.probes_used;
      e.partition_valid = valid_partition(grouping, c.n);

      e.min_group = c.n;
      for (const core::CacheGroup& g : grouping.groups) {
        e.max_group = std::max(e.max_group, g.members.size());
        e.min_group = std::min(e.min_group, g.members.size());
      }

      std::vector<std::vector<std::size_t>> groups;
      groups.reserve(grouping.groups.size());
      for (const core::CacheGroup& g : grouping.groups) {
        groups.emplace_back(g.members.begin(), g.members.end());
      }
      e.gicost_ms = cluster::average_group_interaction_cost(groups, icost);

      e.quiet = run_sim(catalog, *rtt, c.n, grouping, trace, {});
      e.churn = run_sim(catalog, *rtt, c.n, grouping, trace, churn);

      std::cout << "  " << name << ": probes=" << e.formation_probes
                << ", wall=" << e.formation_wall_ms
                << " ms, gicost=" << e.gicost_ms
                << " ms, hit=" << e.quiet.hit_rate
                << ", miss-lat=" << e.quiet.avg_miss_latency_ms
                << " ms (churn: hit=" << e.churn.hit_rate
                << ", miss-lat=" << e.churn.avg_miss_latency_ms << " ms)\n";
      entries.push_back(e);
    }
  }

  util::Table table({"n", "scheme", "probes", "form_ms", "gicost_ms",
                     "hit", "miss_ms", "churn_hit", "churn_miss_ms",
                     "max_grp"});
  for (const Entry& e : entries) {
    table.add_row({std::to_string(e.n), e.scheme,
                   std::to_string(e.formation_probes),
                   util::format_fixed(e.formation_wall_ms, 1),
                   util::format_fixed(e.gicost_ms, 2),
                   util::format_fixed(e.quiet.hit_rate, 3),
                   util::format_fixed(e.quiet.avg_miss_latency_ms, 2),
                   util::format_fixed(e.churn.hit_rate, 3),
                   util::format_fixed(e.churn.avg_miss_latency_ms, 2),
                   std::to_string(e.max_group)});
  }
  bench::print_table(table);

  bench::Report report("ecgf-bench-bakeoff/1", smoke ? "smoke" : "full");
  bench::Json schemes_json = bench::Json::array();
  for (const std::string& name : scheme_names) schemes_json.push(name);
  report.set("schemes", schemes_json);
  const auto arm_json = [](const ArmResult& arm) {
    return bench::Json::object()
        .set("hit_rate", arm.hit_rate)
        .set("avg_latency_ms", arm.avg_latency_ms)
        .set("avg_miss_latency_ms", arm.avg_miss_latency_ms)
        .set("leaves", arm.leaves)
        .set("joins", arm.joins);
  };
  bench::Json entries_json = bench::Json::array();
  for (const Entry& e : entries) {
    entries_json.push(bench::Json::object()
                          .set("n", e.n)
                          .set("k", e.k)
                          .set("provider", e.provider)
                          .set("scheme", e.scheme)
                          .set("formation_probes", e.formation_probes)
                          .set("formation_wall_ms", e.formation_wall_ms)
                          .set("gicost_ms", e.gicost_ms)
                          .set("max_group", e.max_group)
                          .set("min_group", e.min_group)
                          .set("partition_valid", e.partition_valid)
                          .set("quiet", arm_json(e.quiet))
                          .set("churn", arm_json(e.churn)));
  }
  report.set("entries", entries_json);

  // Shape checks. Cross-scheme claims need the full table, so a
  // --scheme= filter runs only the per-scheme invariants.
  bool valid = true;
  bool costs_positive = true;
  for (const Entry& e : entries) {
    valid &= e.partition_valid;
    costs_positive &= e.formation_probes > 0 && e.formation_wall_ms > 0.0 &&
                      e.gicost_ms > 0.0;
  }
  report.check("every scheme produced a full valid partition at every N",
               valid);
  report.check(
      "every formation reported positive probe, wall, and interaction costs",
      costs_positive);

  auto find = [&](std::size_t n, const std::string& scheme) -> const Entry* {
    for (const Entry& e : entries) {
      if (e.n == n && e.scheme == scheme) return &e;
    }
    return nullptr;
  };
  // The cross-scheme claims below look rows up by name, so the full table
  // must hold exactly the canonical schemes at every N before they run.
  const std::vector<std::string> canonical = {"sl",  "sdsl",      "random",
                                              "geo", "proximity", "ucc"};
  bool covered = scheme_names == canonical &&
                 entries.size() == cases.size() * canonical.size();
  for (const Case& c : cases) {
    for (const std::string& name : canonical) {
      covered &= find(c.n, name) != nullptr;
    }
  }
  if (only_scheme.empty() &&
      report.check("the table lists the registry's schemes in canonical "
                   "order (sl, sdsl, random, geo, proximity, ucc) at every N",
                   covered)) {
    bool sdsl_beats_random = true;
    bool locality_beats_random = true;
    bool prox_capped = true;
    for (const Case& c : cases) {
      const Entry* random = find(c.n, "random");
      for (const std::string& name :
           {std::string("sl"), std::string("sdsl"), std::string("geo"),
            std::string("proximity"), std::string("ucc")}) {
        const Entry* e = find(c.n, name);
        locality_beats_random &= e->gicost_ms < random->gicost_ms;
      }
      sdsl_beats_random &= find(c.n, "sdsl")->quiet.avg_miss_latency_ms <
                           random->quiet.avg_miss_latency_ms;
      const Entry* prox = find(c.n, "proximity");
      const std::size_t cap = (c.n + prox->k - 1) / prox->k;
      prox_capped &= prox->max_group <= cap;
    }
    report.check(
        "SDSL beats the random baseline on avg miss latency at every N",
        sdsl_beats_random);
    report.check(
        "every locality-aware scheme beats random on interaction cost",
        locality_beats_random);
    report.check("proximity never exceeds its ceil(n/k) group-size cap",
                 prox_capped);
  }
  return report.finish(json_out);
}
