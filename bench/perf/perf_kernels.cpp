// Perf-regression suite: times every optimised hot-path kernel against its
// naive reference implementation and verifies — in the same process, on the
// same inputs — that the two produce identical results. See
// docs/performance.md for methodology, how to run, and how to read the
// output.
//
// Covered kernels (naive → optimised):
//   kmeans            full Lloyd scans → group-bound (Yinyang) pruned packed
//                     kernel
//   distance_matrix   dense host_rtt_matrix + from_full → packed direct fill
//   dijkstra          per-source dijkstra() → bridge-tree kernel
//                     (topology::BridgeTreePaths: certified per-component
//                     folds), every stub router of the churn topology
//   prober_fv         per-landmark measure_rtt_ms loop → measure_many batch
//   lookahead         full cross-shard pair scan at every reshard →
//                     per-run closest-pair list (shard::CrossShardLookahead)
//   regroup           directory rebuild from scratch at every regrouping →
//                     sim::ShardableEngine::apply_groups, which moves only
//                     the caches that changed group
//   e2e_sl / e2e_sdsl whole-scheme formation with kmeans.prune off → on
//
// Output: a human table on stdout, `# shape-check:` equality verdicts, and
// a JSON report (--out, default BENCH_perf.json). --mode=smoke shrinks every
// size so the whole suite runs in seconds — scripts/check.sh runs it as a
// correctness gate (equality checks only; smoke timings are noise).
#include <cstddef>
#include <iostream>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "cache/catalog.h"
#include "cache/directory.h"
#include "cluster/init.h"
#include "cluster/kmeans.h"
#include "coords/feature_vector.h"
#include "core/network_builder.h"
#include "core/scheme.h"
#include "net/distance_matrix.h"
#include "net/prober.h"
#include "net/synthetic.h"
#include "perf_harness.h"
#include "shard/plan.h"
#include "sim/engine.h"
#include "topology/attachment.h"
#include "topology/shortest_paths.h"
#include "topology/transit_stub.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/zipf.h"

namespace {

using namespace ecgf;

struct KMeansShape {
  std::size_t n, k;
  bool plane = false;  ///< plane-RTT landmark vectors instead of blobs
};

struct Config {
  std::vector<KMeansShape> kmeans;
  std::size_t dim = 25;
  std::size_t matrix_hosts = 1024;
  std::size_t prober_hosts = 1024;
  std::size_t landmarks = 25;
  std::size_t lookahead_caches = 1024;
  std::size_t lookahead_reshards = 24;
  std::size_t regroup_caches = 1024;
  std::size_t regroup_steps = 24;
  std::vector<std::size_t> e2e_n;
  std::size_t e2e_k = 16;
  std::size_t warmup = 1;
  bool timing_checks = true;  ///< speedup shape-checks (full mode only)
};

Config full_config() {
  Config c;
  // The last shape is the formation workload's: n = 8,192 caches on a
  // plane seen through 25 landmarks, k = n/64.
  c.kmeans = {{256, 32}, {1024, 32}, {4096, 32}, {8192, 128, true}};
  c.e2e_n = {256, 1024, 4096};
  return c;
}

Config smoke_config() {
  Config c;
  c.kmeans = {{200, 24}};  // k >= 20: two centre groups
  c.matrix_hosts = 64;
  c.prober_hosts = 64;
  c.landmarks = 8;
  c.lookahead_caches = 512;
  c.lookahead_reshards = 8;
  c.regroup_caches = 256;
  c.regroup_steps = 16;
  c.e2e_n = {48};
  c.e2e_k = 4;
  c.warmup = 0;
  c.timing_checks = false;
  return c;
}

/// Repetition count: heavier cases get fewer reps to bound total runtime;
/// the median over the interleaved pairs is what the report quotes, so the
/// count must be high enough that one scheduler burst cannot shift it.
std::size_t reps_for(std::size_t n, const Config& cfg) {
  if (cfg.warmup == 0) return 1;  // smoke: time once, correctness is the gate
  return n >= 4096 ? 15 : 21;
}

int g_failures = 0;

void shape_check(const std::string& claim, bool ok) {
  if (!ok) ++g_failures;
  std::cout << "# shape-check: " << (ok ? "PASS" : "FAIL") << " — " << claim
            << '\n';
}

bool wants(const std::string& filter, const std::string& bench) {
  return filter.empty() || bench.find(filter) != std::string::npos;
}

// --------------------------------------------------------------------------
// kmeans: naive Lloyd vs group-bound pruned packed kernel
// (cluster/kmeans.cpp).

/// Synthetic feature vectors shaped like the real clustering input: hosts
/// in the same topology region have near-identical landmark-RTT vectors,
/// so the point set is a mixture of tight blobs (per-coordinate spread of
/// 4 ms around each region's centre), not uniform noise. The caller picks
/// the region count; the benchmark uses ~1.5× the group count, matching
/// the paper's operating regime where groups track network regions with
/// some regions sharing a group. Pruning effectiveness is sensitive to
/// this ratio — uniform noise (regions >> k) is the pruning worst case
/// and does not resemble landmark-RTT geometry.
cluster::Points random_points(std::size_t n, std::size_t dim,
                              std::size_t regions, std::uint64_t seed) {
  util::Rng rng(seed);
  cluster::Points centers(regions, std::vector<double>(dim));
  for (auto& row : centers)
    for (double& x : row) x = rng.uniform(0.0, 100.0);
  cluster::Points points(n, std::vector<double>(dim));
  for (auto& row : points) {
    const auto& c = centers[rng.index(regions)];
    for (std::size_t j = 0; j < dim; ++j) row[j] = c[j] + rng.normal(0.0, 4.0);
  }
  return points;
}

/// Landmark-RTT feature vectors over net::PlaneRttProvider — the geometry
/// of the benchmark's formation workload: caches spread over a plane, each
/// described by its RTT to `dim` landmark caches. Unlike the blob mixture
/// this has no cluster structure, so Lloyd runs for tens of iterations.
cluster::Points plane_points(std::size_t n, std::size_t dim,
                             std::uint64_t seed) {
  net::PlaneOptions options;
  options.seed = seed;
  const net::PlaneRttProvider rtt(n, options);
  cluster::Points points(n, std::vector<double>(dim));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < dim; ++j)
      points[i][j] = rtt.rtt_ms(static_cast<net::HostId>(i),
                                static_cast<net::HostId>(j * (n / dim)));
  return points;
}

bool same_result(const cluster::KMeansResult& a,
                 const cluster::KMeansResult& b) {
  return a.assignment == b.assignment && a.centers == b.centers &&
         a.iterations == b.iterations && a.converged == b.converged;
}

void bench_kmeans(perf::Report& report, const Config& cfg,
                  const std::string& filter) {
  if (!wants(filter, "kmeans")) return;
  const cluster::UniformCoverageInit init;
  for (const auto [n, k, plane] : cfg.kmeans) {
    const auto points =
        plane ? plane_points(n, cfg.dim, /*seed=*/100 + n)
              : random_points(n, cfg.dim, /*regions=*/k + k / 2,
                              /*seed=*/100 + n);
    const util::Rng proto(200 + n);

    cluster::KMeansOptions naive_opts;
    naive_opts.prune = false;
    naive_opts.restarts = 1;  // isolate the kernel, not the restart fan-out
    cluster::KMeansOptions fast_opts = naive_opts;
    fast_opts.prune = true;

    {
      util::Rng r1 = proto, r2 = proto;
      const auto a = cluster::kmeans(points, k, init, r1, naive_opts);
      const auto b = cluster::kmeans(points, k, init, r2, fast_opts);
      shape_check("kmeans pruned == naive (n=" + std::to_string(n) +
                      " k=" + std::to_string(k) + ")",
                  same_result(a, b));
    }

    perf::Entry e;
    e.bench = "kmeans";
    e.params = "n=" + std::to_string(n) + " d=" + std::to_string(cfg.dim) +
               " k=" + std::to_string(k) + (plane ? " plane" : "");
    e.n = n;
    const std::size_t reps = reps_for(n, cfg);
    std::tie(e.naive, e.optimized) = perf::time_pair(
        [&] {
          util::Rng r = proto;
          const auto res = cluster::kmeans(points, k, init, r, naive_opts);
          perf::keep(&res);
        },
        [&] {
          util::Rng r = proto;
          const auto res = cluster::kmeans(points, k, init, r, fast_opts);
          perf::keep(&res);
        },
        reps, cfg.warmup);
    if (cfg.timing_checks && n == 4096) {
      shape_check("kmeans pruned >= 1.5x naive at n=4096", e.speedup() >= 1.5);
    }
    if (cfg.timing_checks && plane) {
      // Group bounds measured 5.5-7x here, single-bound Hamerly ~2.1x.
      shape_check("kmeans pruned >= 4x naive at the formation shape",
                  e.speedup() >= 4.0);
    }
    report.add(std::move(e));
  }
}

// --------------------------------------------------------------------------
// distance_matrix: dense host_rtt_matrix + from_full vs the packed direct
// fill (core::host_rtt_distance_matrix). Both share the same Dijkstra plan;
// the delta is the n×n intermediate, its validation, and the write pattern.

void bench_distance_matrix(perf::Report& report, const Config& cfg,
                           const std::string& filter) {
  if (!wants(filter, "distance_matrix")) return;
  const std::size_t hosts = cfg.matrix_hosts;
  util::Rng rng(42);
  util::Rng topo_rng = rng.fork(1);
  util::Rng place_rng = rng.fork(2);
  const auto topo = topology::generate_transit_stub(
      core::scaled_topology_for(hosts - 1), topo_rng);
  const auto placement =
      topology::place_hosts(topo, hosts, topology::PlacementOptions{},
                            place_rng);

  {
    const auto full = topology::host_rtt_matrix(topo.graph, placement);
    const auto dense = net::DistanceMatrix::from_full(full);
    const auto packed = core::host_rtt_distance_matrix(topo.graph, placement);
    bool equal = dense.size() == packed.size();
    for (std::size_t i = 0; equal && i < hosts; ++i)
      for (std::size_t j = 0; j < i; ++j)
        if (dense.at(i, j) != packed.at(i, j)) {
          equal = false;
          break;
        }
    shape_check("packed RTT matrix == dense+from_full (hosts=" +
                    std::to_string(hosts) + ")",
                equal);
  }

  perf::Entry e;
  e.bench = "distance_matrix";
  e.params = "hosts=" + std::to_string(hosts);
  e.n = hosts;
  const std::size_t reps = reps_for(hosts, cfg);
  std::tie(e.naive, e.optimized) = perf::time_pair(
      [&] {
        const auto full = topology::host_rtt_matrix(topo.graph, placement);
        const auto m = net::DistanceMatrix::from_full(full);
        perf::keep(&m);
      },
      [&] {
        const auto m = core::host_rtt_distance_matrix(topo.graph, placement);
        perf::keep(&m);
      },
      reps, cfg.warmup);
  report.add(std::move(e));
}

// --------------------------------------------------------------------------
// dijkstra: one whole-graph dijkstra() per source vs
// multi_source_shortest_paths, which walks the graph's bridge tree and
// fills each stub domain from a certified shortest-path tree. Every stub
// router is a source, on the topology the churn workload builds for
// matrix_hosts - 1 caches.

void bench_dijkstra(perf::Report& report, const Config& cfg,
                    const std::string& filter) {
  if (!wants(filter, "dijkstra")) return;
  util::Rng rng(7);
  const auto topo = topology::generate_transit_stub(
      core::scaled_topology_for(cfg.matrix_hosts - 1), rng);
  const std::vector<topology::NodeId> sources = topo.stub_nodes();

  {
    std::vector<std::vector<double>> naive(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i)
      naive[i] = topology::dijkstra(topo.graph, sources[i]);
    const auto fast =
        topology::multi_source_shortest_paths(topo.graph, sources);
    shape_check("multi-source dijkstra == per-source dijkstra (sources=" +
                    std::to_string(sources.size()) + ")",
                naive == fast);
  }

  perf::Entry e;
  e.bench = "dijkstra";
  e.params = "sources=" + std::to_string(sources.size()) +
             " nodes=" + std::to_string(topo.graph.node_count());
  e.n = sources.size();
  const std::size_t reps = reps_for(sources.size(), cfg);
  std::tie(e.naive, e.optimized) = perf::time_pair(
      [&] {
        for (topology::NodeId s : sources) {
          const auto d = topology::dijkstra(topo.graph, s);
          perf::keep(&d);
        }
      },
      [&] {
        const auto d = topology::multi_source_shortest_paths(topo.graph, sources);
        perf::keep(&d);
      },
      reps, cfg.warmup);
  if (cfg.timing_checks) {
    // Measured 10.8-11.7x on one thread (1,152 sources, 1,168 routers).
    shape_check("bridge-tree dijkstra >= 5x per-source dijkstra on the churn "
                "topology",
                e.speedup() >= 5.0);
  }
  report.add(std::move(e));
}

// --------------------------------------------------------------------------
// prober_fv: the pre-batching feature-vector build (one measure_rtt_ms per
// landmark plus a buffer copy per host) vs coords::build_feature_vectors
// (Prober::measure_many straight into the PositionMap row).

net::DistanceMatrix synthetic_matrix(std::size_t hosts, std::uint64_t seed) {
  util::Rng rng(seed);
  net::DistanceMatrix m(hosts);
  for (std::size_t i = 1; i < hosts; ++i) {
    auto row = m.lower_row(i);
    for (std::size_t j = 0; j < i; ++j) row[j] = rng.uniform(5.0, 300.0);
  }
  return m;
}

void bench_prober_fv(perf::Report& report, const Config& cfg,
                     const std::string& filter) {
  if (!wants(filter, "prober_fv")) return;
  const std::size_t hosts = cfg.prober_hosts;
  const net::MatrixRttProvider provider(synthetic_matrix(hosts, 11));
  std::vector<net::HostId> landmarks;
  for (std::size_t l = 0; l < cfg.landmarks; ++l)
    landmarks.push_back(static_cast<net::HostId>(l * (hosts / cfg.landmarks)));
  const net::ProberOptions popts;

  const auto naive_build = [&](net::Prober& prober) {
    coords::PositionMap map(hosts, landmarks.size());
    std::vector<double> fv(landmarks.size());
    for (net::HostId h = 0; h < hosts; ++h) {
      for (std::size_t l = 0; l < landmarks.size(); ++l)
        fv[l] = prober.measure_rtt_ms(h, landmarks[l]);
      map.set_coords(h, fv);
    }
    return map;
  };

  {
    net::Prober p1(provider, popts, util::Rng(13));
    net::Prober p2(provider, popts, util::Rng(13));
    const auto naive = naive_build(p1);
    const auto fast = coords::build_feature_vectors(hosts, landmarks, p2);
    bool equal = p1.probes_sent() == p2.probes_sent();
    for (net::HostId h = 0; equal && h < hosts; ++h) {
      const auto a = naive.coords(h), b = fast.coords(h);
      for (std::size_t l = 0; l < a.size(); ++l)
        if (a[l] != b[l]) {
          equal = false;
          break;
        }
    }
    shape_check("batched feature vectors == per-landmark loop (hosts=" +
                    std::to_string(hosts) + ")",
                equal);
  }

  perf::Entry e;
  e.bench = "prober_fv";
  e.params = "hosts=" + std::to_string(hosts) +
             " landmarks=" + std::to_string(landmarks.size());
  e.n = hosts;
  const std::size_t reps = reps_for(hosts, cfg);
  std::tie(e.naive, e.optimized) = perf::time_pair(
      [&] {
        net::Prober prober(provider, popts, util::Rng(13));
        const auto map = naive_build(prober);
        perf::keep(&map);
      },
      [&] {
        net::Prober prober(provider, popts, util::Rng(13));
        const auto map = coords::build_feature_vectors(hosts, landmarks, prober);
        perf::keep(&map);
      },
      reps, cfg.warmup);
  report.add(std::move(e));
}

// --------------------------------------------------------------------------
// lookahead: the cross-shard lookahead of one churning sharded run — the
// benchmark's `churn` world shape (GT-ITM matrix, 4 shards) re-derived at
// every reshard. Naive: shard::min_cross_shard_rtt_ms, the full pair scan,
// at each reshard. Optimised: one shard::CrossShardLookahead per run — one
// pass over all pairs, then a walk of the kept list per reshard.

/// One reshard's inputs: the plan of an SDSL regrouping over 4 shards
/// (K = caches/64 groups, as the `churn` workload forms them, each from
/// its own seed — the re-formations of a maintained run) and a random
/// ~2% of the caches down (left, not yet rejoined).
struct Reshard {
  shard::ShardPlan plan;
  std::vector<bool> down;
};

std::vector<Reshard> churn_reshards(const net::RttProvider& rtt,
                                    std::size_t caches, std::size_t count,
                                    std::uint64_t seed) {
  constexpr std::size_t kShards = 4;
  core::SchemeConfig config;
  config.num_landmarks = std::min<std::size_t>(25, caches / 4);
  config.m_multiplier = 2;
  config.theta = 2.0;
  const core::SdslScheme scheme(config);
  const auto server = static_cast<net::HostId>(caches);
  const std::size_t groups = std::max<std::size_t>(kShards, caches / 64);
  util::Rng rng(seed);
  std::vector<Reshard> out;
  for (std::size_t r = 0; r < count; ++r) {
    net::Prober prober(rtt, net::ProberOptions{}, rng.fork(2 * r));
    util::Rng form_rng = rng.fork(2 * r + 1);
    const auto partition =
        scheme.form_groups(caches, server, groups, prober, form_rng)
            .partition();
    std::vector<bool> down(caches);
    for (std::size_t c = 0; c < caches; ++c) down[c] = rng.bernoulli(0.02);
    out.push_back(
        {shard::ShardPlan(partition, caches, kShards), std::move(down)});
  }
  return out;
}

void bench_lookahead(perf::Report& report, const Config& cfg,
                     const std::string& filter) {
  if (!wants(filter, "lookahead")) return;
  const std::size_t caches = cfg.lookahead_caches;
  util::Rng rng(31);
  util::Rng topo_rng = rng.fork(1);
  util::Rng place_rng = rng.fork(2);
  const auto topo = topology::generate_transit_stub(
      core::scaled_topology_for(caches), topo_rng);
  const auto placement = topology::place_hosts(
      topo, caches + 1, topology::PlacementOptions{}, place_rng);
  const net::MatrixRttProvider rtt(
      core::host_rtt_distance_matrix(topo.graph, placement));
  const std::vector<Reshard> reshards =
      churn_reshards(rtt, caches, cfg.lookahead_reshards, /*seed=*/37);

  const auto naive = [&] {
    std::vector<double> widths;
    for (const Reshard& r : reshards) {
      widths.push_back(shard::min_cross_shard_rtt_ms(
          r.plan, rtt, caches, shard::kExactLookaheadCaches,
          [&](cache::CacheIndex c) { return !r.down[c]; }));
    }
    return widths;
  };
  const auto indexed = [&](std::size_t* fallbacks) {
    shard::CrossShardLookahead index;
    std::vector<double> widths;
    for (const Reshard& r : reshards) {
      widths.push_back(index.min_rtt_ms(
          r.plan, rtt, caches,
          [&](cache::CacheIndex c) { return !r.down[c]; }));
    }
    if (fallbacks != nullptr) *fallbacks = index.fallbacks();
    return widths;
  };

  {
    std::size_t fallbacks = 0;
    const auto a = naive();
    const auto b = indexed(&fallbacks);
    shape_check("lookahead index == full scan at every one of " +
                    std::to_string(reshards.size()) +
                    " reshards (caches=" + std::to_string(caches) +
                    ", fallbacks=" + std::to_string(fallbacks) + ")",
                a == b);
  }

  perf::Entry e;
  e.bench = "lookahead";
  e.params = "caches=" + std::to_string(caches) +
             " reshards=" + std::to_string(reshards.size());
  e.n = caches;
  const std::size_t reps = reps_for(caches, cfg);
  std::tie(e.naive, e.optimized) = perf::time_pair(
      [&] {
        const auto widths = naive();
        perf::keep(&widths);
      },
      [&] {
        const auto widths = indexed(nullptr);
        perf::keep(&widths);
      },
      reps, cfg.warmup);
  if (cfg.timing_checks) {
    // Measured 20.6-22.9x (one pair pass against 24 scans, no fallback).
    shape_check("lookahead index >= 10x the per-reshard scan over a run",
                e.speedup() >= 10.0);
  }
  report.add(std::move(e));
}

// --------------------------------------------------------------------------
// regroup: the directory cut-over of sim::ShardableEngine::apply_groups on
// a warmed engine, one maintained run's worth of regroupings. Naive: a
// rebuild from scratch over the engine's public state — fresh directories,
// then every live cache's resident documents registered in cache-index
// order, which is what apply_groups did before it moved only the caches
// that changed group. Optimised: apply_groups. Between regroupings an
// untimed burst of requests reorders holder lists, as serve traffic does.

struct DiscardSink final : sim::EffectSink {
  void emit(const obs::TraceEvent&) override {}
  void record(cache::CacheIndex, double, sim::Resolution,
              sim::SimTime) override {}
  void rtt_sample(net::HostId, net::HostId, double, sim::SimTime) override {}
};

using Partition = std::vector<std::vector<cache::CacheIndex>>;

std::vector<cache::GroupDirectory> rebuild_directories(
    const sim::ShardableEngine& engine, const Partition& groups) {
  std::vector<std::size_t> group_of(engine.cache_count(), groups.size());
  std::vector<cache::GroupDirectory> dirs;
  dirs.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    dirs.emplace_back(groups[g], engine.config().beacons_per_group);
    for (cache::CacheIndex c : groups[g]) group_of[c] = g;
  }
  for (std::size_t c = 0; c < engine.cache_count(); ++c) {
    const auto holder = static_cast<cache::CacheIndex>(c);
    if (engine.is_down(holder)) continue;
    auto& dir = dirs[group_of[c]];
    for (cache::DocId d : engine.edge_cache(holder).resident_docs()) {
      dir.add_holder(d, holder);
    }
  }
  return dirs;
}

/// Members, beacons, registration counts and every holder list in order.
bool same_directories(const sim::ShardableEngine& engine,
                      const std::vector<cache::GroupDirectory>& want,
                      std::size_t docs) {
  if (engine.groups().size() != want.size()) return false;
  for (std::size_t g = 0; g < want.size(); ++g) {
    const cache::GroupDirectory& got =
        engine.directory_of(engine.groups()[g].front());
    if (got.members() != want[g].members() ||
        got.beacon_count() != want[g].beacon_count() ||
        got.registration_count() != want[g].registration_count()) {
      return false;
    }
    for (cache::DocId d = 0; d < docs; ++d) {
      if (got.holders(d) != want[g].holders(d)) return false;
    }
  }
  return true;
}

/// The next regrouping of a maintained run: mostly repairs that move one
/// to eight caches; every eighth step a group empties into the others (so
/// later group indices shift), and four steps later a group splits in two
/// (a new group at the end).
Partition next_regrouping(Partition groups, std::size_t step,
                          util::Rng& rng) {
  if (step % 8 == 7 && groups.size() > 2) {
    const std::size_t g = rng.index(groups.size());
    const std::vector<cache::CacheIndex> members = std::move(groups[g]);
    groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(g));
    for (cache::CacheIndex c : members) {
      groups[rng.index(groups.size())].push_back(c);
    }
  } else if (step % 8 == 3) {
    auto& split = groups[rng.index(groups.size())];
    if (split.size() >= 2) {
      const auto half = static_cast<std::ptrdiff_t>(split.size() / 2);
      std::vector<cache::CacheIndex> tail(split.begin() + half, split.end());
      split.resize(static_cast<std::size_t>(half));
      groups.push_back(std::move(tail));
    }
  } else {
    const std::size_t moves = 1 + rng.index(8);
    for (std::size_t m = 0; m < moves; ++m) {
      const std::size_t from = rng.index(groups.size());
      const std::size_t to = rng.index(groups.size());
      if (from == to || groups[from].size() < 2) continue;
      const std::size_t k = rng.index(groups[from].size());
      groups[to].push_back(groups[from][k]);
      groups[from].erase(groups[from].begin() +
                         static_cast<std::ptrdiff_t>(k));
    }
  }
  return groups;
}

/// Naive and optimised milliseconds over one pass of regroupings.
struct RegroupPass {
  double naive_ms = 0.0;
  double optimized_ms = 0.0;
  bool equal = true;
};

/// One pass on a fresh engine in the `churn` workload's shape: 2,000
/// generated documents, 2 MB utility caches with three beacons per group,
/// K = caches/64 groups, and a Zipf(0.9) stream that warms each cache with
/// 16 requests and then sends caches/4 requests between regroupings (about
/// 22 per cache over the pass; churn serves 20). Every pass is seeded the
/// same, so passes repeat the same work. Each step times both sides on the
/// same engine state, in alternating order, and compares the directories
/// outside the timed region.
RegroupPass regroup_pass(const net::RttProvider& rtt,
                         const cache::Catalog& catalog, std::size_t caches,
                         std::size_t steps) {
  const workload::ZipfSampler zipf(catalog.size(), 0.9);
  util::Rng rng(43);
  util::Rng serve_rng = rng.fork(1);
  util::Rng group_rng = rng.fork(2);

  std::vector<cache::CacheIndex> order(caches);
  std::iota(order.begin(), order.end(), cache::CacheIndex{0});
  group_rng.shuffle(order);
  Partition groups(std::max<std::size_t>(2, caches / 64));
  for (std::size_t j = 0; j < caches; ++j) {
    groups[j % groups.size()].push_back(order[j]);
  }
  sim::SimulationConfig config;
  config.groups = groups;
  config.cache_capacity_bytes = 2ull << 20;
  config.policy = cache::PolicyKind::kUtility;
  config.beacons_per_group = 3;
  sim::ShardableEngine engine(catalog, rtt,
                              static_cast<net::HostId>(caches), config);

  DiscardSink sink;
  sim::SimTime now = 0.0;
  std::uint64_t index = 0;
  const auto serve = [&](std::size_t requests) {
    for (std::size_t r = 0; r < requests; ++r) {
      now += 0.01;
      const workload::Request request{
          now, static_cast<std::uint32_t>(serve_rng.index(caches)),
          static_cast<cache::DocId>(zipf.sample(serve_rng))};
      engine.on_complete(engine.on_request(index++, request, now, sink),
                         sink);
    }
  };
  serve(16 * caches);
  // About 1% of the caches crash and 1% leave; they stay down all pass,
  // and the departed ones drop out of the partition (one untimed cut-over).
  for (std::size_t c = 0; c < caches; ++c) {
    const auto i = static_cast<cache::CacheIndex>(c);
    if (group_rng.bernoulli(0.01)) engine.on_failure(i, now, sink);
    if (group_rng.bernoulli(0.01)) engine.on_leave(i, now, sink);
  }
  for (auto& g : groups) {
    std::erase_if(g,
                  [&](cache::CacheIndex c) { return engine.is_departed(c); });
  }
  std::erase_if(groups, [](const auto& g) { return g.empty(); });
  engine.apply_groups(groups);

  RegroupPass pass;
  for (std::size_t step = 0; step < steps; ++step) {
    serve(caches / 4);
    groups = next_regrouping(std::move(groups), step, group_rng);
    std::vector<cache::GroupDirectory> rebuilt;
    const auto naive = [&] { rebuilt = rebuild_directories(engine, groups); };
    const auto optimized = [&] { engine.apply_groups(groups); };
    if (step % 2 == 0) {
      pass.naive_ms += perf::time_once_ms(naive);
      pass.optimized_ms += perf::time_once_ms(optimized);
    } else {
      pass.optimized_ms += perf::time_once_ms(optimized);
      pass.naive_ms += perf::time_once_ms(naive);
    }
    pass.equal =
        pass.equal && same_directories(engine, rebuilt, catalog.size());
  }
  return pass;
}

void bench_regroup(perf::Report& report, const Config& cfg,
                   const std::string& filter) {
  if (!wants(filter, "regroup")) return;
  const std::size_t caches = cfg.regroup_caches;
  net::PlaneOptions plane;
  plane.seed = 41;
  const net::PlaneRttProvider rtt(caches + 1, plane);
  util::Rng catalog_rng(47);
  const cache::Catalog catalog =
      cache::Catalog::generate(cache::CatalogParams{}, catalog_rng);

  const std::size_t reps = reps_for(caches, cfg);
  std::vector<double> naive_ms, optimized_ms;
  std::size_t checked = 0;
  bool equal = true;
  for (std::size_t rep = 0; rep < cfg.warmup + reps; ++rep) {
    const RegroupPass pass =
        regroup_pass(rtt, catalog, caches, cfg.regroup_steps);
    equal = equal && pass.equal;
    checked += cfg.regroup_steps;
    if (rep < cfg.warmup) continue;
    naive_ms.push_back(pass.naive_ms);
    optimized_ms.push_back(pass.optimized_ms);
  }
  shape_check("regroup apply_groups == rebuild from scratch after every one "
              "of " + std::to_string(checked) + " regroupings (caches=" +
                  std::to_string(caches) + ")",
              equal);

  perf::Entry e;
  e.bench = "regroup";
  e.params = "caches=" + std::to_string(caches) +
             " steps=" + std::to_string(cfg.regroup_steps);
  e.n = caches;
  e.naive = perf::summarize(naive_ms);
  e.optimized = perf::summarize(optimized_ms);
  if (cfg.timing_checks) {
    // Measured 3.3-3.4x on a 4-core x86-64 host. The three steps per pass
    // that empty a group renumber every later group, so every cache of
    // those groups moves.
    shape_check("regroup apply_groups >= 2x the rebuild from scratch over a "
                "pass",
                e.speedup() >= 2.0);
  }
  report.add(std::move(e));
}

// --------------------------------------------------------------------------
// e2e: whole SL / SDSL formation over a synthetic network, kmeans.prune off
// vs on. Everything else (landmarks, probing, positions) is shared cost, so
// this shows the end-to-end effect of the kernel work.

void bench_e2e(perf::Report& report, const Config& cfg,
               const std::string& filter, bool sdsl) {
  const std::string bench = sdsl ? "e2e_sdsl" : "e2e_sl";
  if (!wants(filter, bench)) return;
  for (std::size_t n : cfg.e2e_n) {
    const std::size_t hosts = n + 1;  // + origin server
    const net::MatrixRttProvider provider(synthetic_matrix(hosts, 17 + n));
    const net::HostId server = static_cast<net::HostId>(n);
    const std::size_t k = std::min(cfg.e2e_k, n / 8);

    core::SchemeConfig config;
    config.num_landmarks = std::min<std::size_t>(cfg.landmarks, n / 4);

    const auto run = [&](bool prune) {
      core::SchemeConfig c = config;
      c.kmeans.prune = prune;
      net::Prober prober(provider, net::ProberOptions{}, util::Rng(23));
      util::Rng rng(29);
      if (sdsl) {
        return core::SdslScheme(c).form_groups(n, server, k, prober, rng);
      }
      return core::SlScheme(c).form_groups(n, server, k, prober, rng);
    };

    {
      const auto naive = run(false);
      const auto fast = run(true);
      shape_check(bench + " pruned == naive (n=" + std::to_string(n) + ")",
                  naive.partition() == fast.partition() &&
                      naive.probes_used == fast.probes_used &&
                      naive.kmeans_iterations == fast.kmeans_iterations);
    }

    perf::Entry e;
    e.bench = bench;
    e.params = "n=" + std::to_string(n) + " k=" + std::to_string(k) +
               " L=" + std::to_string(config.num_landmarks);
    e.n = n;
    const std::size_t reps = reps_for(n, cfg);
    std::tie(e.naive, e.optimized) = perf::time_pair(
        [&] {
          const auto res = run(false);
          perf::keep(&res);
        },
        [&] {
          const auto res = run(true);
          perf::keep(&res);
        },
        reps, cfg.warmup);
    report.add(std::move(e));
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("out", "path of the JSON report", "BENCH_perf.json");
  flags.define("mode", "full (paper sizes) or smoke (seconds, CI gate)",
               "full");
  flags.define("filter",
               "substring filter on bench names "
               "(kmeans, distance_matrix, dijkstra, prober_fv, lookahead, "
               "regroup, "
               "e2e_sl, e2e_sdsl); empty = all",
               "");
  flags.define("threads",
               "thread-pool size; 1 (default) for stable single-core timings",
               "1");
  if (!flags.parse(argc, argv)) return 0;

  const std::string mode = flags.get("mode");
  if (mode != "full" && mode != "smoke") {
    std::cerr << "unknown --mode '" << mode << "' (want full|smoke)\n";
    return 2;
  }
  const std::size_t threads =
      static_cast<std::size_t>(flags.get_int("threads"));
  util::set_configured_threads(threads == 0 ? 1 : threads);

  const Config cfg = mode == "full" ? full_config() : smoke_config();
  const std::string filter = flags.get("filter");

  perf::Report report(mode, threads == 0 ? 1 : threads);
  bench_kmeans(report, cfg, filter);
  bench_distance_matrix(report, cfg, filter);
  bench_dijkstra(report, cfg, filter);
  bench_prober_fv(report, cfg, filter);
  bench_lookahead(report, cfg, filter);
  bench_regroup(report, cfg, filter);
  bench_e2e(report, cfg, filter, /*sdsl=*/false);
  bench_e2e(report, cfg, filter, /*sdsl=*/true);

  std::cout << '\n';
  report.print_table(std::cout);

  const std::string out = flags.get("out");
  if (!report.write_json(out)) {
    std::cerr << "failed to write " << out << '\n';
    return 2;
  }
  std::cout << "\nwrote " << out << " (" << report.entries().size()
            << " entries, mode=" << mode << ")\n";
  return g_failures == 0 ? 0 : 1;
}
