// Equality contract of every optimised hot-path kernel against its naive
// reference — the test-suite half of the perf work benchmarked by
// bench/perf/perf_kernels (which times the same pairs). Each optimisation
// promises BIT-IDENTICAL results, not approximately-equal ones, so every
// comparison here is exact (== on doubles, whole-container equality).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cluster/init.h"
#include "cluster/kmeans.h"
#include "cluster/points.h"
#include "core/network_builder.h"
#include "net/distance_matrix.h"
#include "net/prober.h"
#include "obs/trace.h"
#include "topology/attachment.h"
#include "topology/shortest_paths.h"
#include "topology/transit_stub.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ecgf;

// ---------------------------------------------------------------------------
// Shared generators.

/// Blob-mixture point set (hosts clustered into topology regions), the
/// shape the clustering kernels actually see. `regions == 0` degenerates
/// to uniform noise — the pruning worst case, which must still be exact.
cluster::Points make_points(std::size_t n, std::size_t dim,
                            std::size_t regions, std::uint64_t seed) {
  util::Rng rng(seed);
  cluster::Points points(n, std::vector<double>(dim));
  if (regions == 0) {
    for (auto& row : points)
      for (double& x : row) x = rng.uniform(0.0, 100.0);
    return points;
  }
  cluster::Points centers(regions, std::vector<double>(dim));
  for (auto& row : centers)
    for (double& x : row) x = rng.uniform(0.0, 100.0);
  for (auto& row : points) {
    const auto& c = centers[rng.index(regions)];
    for (std::size_t j = 0; j < dim; ++j) row[j] = c[j] + rng.normal(0.0, 4.0);
  }
  return points;
}

void expect_same(const cluster::KMeansResult& naive,
                 const cluster::KMeansResult& pruned,
                 const cluster::Points& points, const std::string& what) {
  EXPECT_EQ(naive.assignment, pruned.assignment) << what;
  EXPECT_EQ(naive.centers, pruned.centers) << what;
  EXPECT_EQ(naive.iterations, pruned.iterations) << what;
  EXPECT_EQ(naive.converged, pruned.converged) << what;
  EXPECT_EQ(cluster::within_cluster_ss(points, naive),
            cluster::within_cluster_ss(points, pruned))
      << what;
}

// ---------------------------------------------------------------------------
// Pruned K-means == naive K-means, bit for bit. Shapes with k >= 20 split
// the centres into t = k/10 >= 2 groups and take the multi-group path;
// smaller k runs a single group (Hamerly's kernel).

/// Runs the naive and the pruned kernel from the same RNG state and options
/// and expects bit-identical results.
void expect_pruned_matches_naive(const cluster::Points& points, std::size_t k,
                                 const cluster::InitStrategy& init,
                                 std::uint64_t seed,
                                 const cluster::KMeansOptions& base,
                                 const std::string& what) {
  cluster::KMeansOptions naive_opts = base;
  naive_opts.prune = false;
  cluster::KMeansOptions fast_opts = base;
  fast_opts.prune = true;
  util::Rng r1(seed), r2(seed);
  const auto naive = cluster::kmeans(points, k, init, r1, naive_opts);
  const auto pruned = cluster::kmeans(points, k, init, r2, fast_opts);
  expect_same(naive, pruned, points, what);
}

/// Integer grid points with many exact duplicates and exact distance ties.
cluster::Points grid_points(std::size_t n, std::size_t dim, int side,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  cluster::Points points(n, std::vector<double>(dim));
  for (auto& row : points)
    for (double& x : row)
      x = static_cast<double>(rng.index(static_cast<std::size_t>(side)));
  return points;
}

struct Shape {
  std::size_t n, dim, k, regions;
};

std::string describe(const Shape& s) {
  return "n=" + std::to_string(s.n) + " dim=" + std::to_string(s.dim) +
         " k=" + std::to_string(s.k) + " regions=" + std::to_string(s.regions);
}

TEST(PerfKernels, PrunedKMeansMatchesNaiveAcrossSeedsAndShapes) {
  const cluster::UniformCoverageInit init;
  const Shape shapes[] = {
      {40, 3, 4, 6},   {150, 10, 8, 12}, {300, 25, 16, 24},
      {300, 25, 16, 0},  // uniform noise: pruning rarely fires, still exact
      {64, 1, 5, 8},     // dim=1 exercises degenerate geometry
      {600, 10, 40, 0},  {400, 25, 40, 0}, {300, 1, 20, 30}, {200, 1, 64, 0},
      // The formation workload's shape scaled down: k² > n, so the
      // centre-gap guard is off and the group bounds do all the pruning.
      {2048, 25, 128, 192},
  };
  for (const Shape& s : shapes) {
    for (std::uint64_t seed : {1u, 7u, 42u}) {
      const auto points = make_points(s.n, s.dim, s.regions, seed);
      expect_pruned_matches_naive(points, s.k, init, seed * 1000 + 1, {},
                                  describe(s) +
                                      " seed=" + std::to_string(seed));
    }
  }
}

TEST(PerfKernels, GroupBoundsMatchNaiveOnTiesAndRepairs) {
  const cluster::UniformCoverageInit init;
  struct Case {
    std::string what;
    cluster::Points points;
    std::size_t k;
  };
  const Case cases[] = {
      {"integer grid ties k=30", grid_points(500, 2, 12, 9), 30},
      {"integer grid ties k=48 dim=3", grid_points(400, 3, 5, 10), 48},
      // k close to n over duplicated points: clusters empty out mid-run
      // and the repair path invalidates the bounds.
      {"repair k=44 n=48", grid_points(48, 2, 5, 11), 44},
      {"repair k=90 n=100", grid_points(100, 2, 7, 12), 90},
  };
  for (const Case& c : cases) {
    for (std::uint64_t seed : {1u, 7u, 42u}) {
      expect_pruned_matches_naive(c.points, c.k, init, seed * 1000 + 1, {},
                                  c.what + " seed=" + std::to_string(seed));
    }
  }
}

TEST(PerfKernels, GroupBoundsMatchNaiveInLowDimensions) {
  // Low dimensions make centres overtake each other often, which is where
  // a stale group bound (e.g. one that forgets a centre a point just left)
  // shows up. One restart per run, so every run's result is compared.
  const cluster::UniformCoverageInit init;
  cluster::KMeansOptions opts;
  opts.restarts = 1;
  for (std::size_t dim : {2u, 5u})
    for (std::size_t k : {20u, 30u, 40u})
      for (std::size_t regions : {0u, 60u})
        for (std::uint64_t seed : {1u, 2u, 3u}) {
          const Shape s{500, dim, k, regions};
          expect_pruned_matches_naive(
              make_points(s.n, s.dim, s.regions, seed), s.k, init, seed, opts,
              describe(s) + " seed=" + std::to_string(seed));
        }
}

TEST(PerfKernels, GroupBoundsMatchNaiveUnderServerDistanceInit) {
  // SDSL's skewed seeding: many centres near the server, long runs.
  for (std::uint64_t seed : {4u, 21u}) {
    const auto points = make_points(1200, 25, 90, seed);
    std::vector<double> server_distance(points.size());
    util::Rng rng(seed + 1);
    for (double& d : server_distance) d = rng.uniform(5.0, 300.0);
    const cluster::ServerDistanceWeightedInit init(server_distance, 2.0);
    expect_pruned_matches_naive(points, 60, init, seed * 7 + 5, {},
                                "sdsl seed=" + std::to_string(seed));
  }
}

TEST(PerfKernels, PrunedKMeansMatchesNaiveAtEveryThreadCount) {
  const cluster::UniformCoverageInit init;
  for (const Shape& s : {Shape{200, 12, 10, 16}, Shape{900, 16, 40, 60}}) {
    const auto points = make_points(s.n, s.dim, s.regions, 99);
    cluster::KMeansOptions naive_opts;
    naive_opts.prune = false;
    util::Rng r0(5);
    const auto reference = cluster::kmeans(points, s.k, init, r0, naive_opts);
    for (std::size_t threads : {1u, 2u, 8u}) {
      util::ThreadPool pool(threads);
      cluster::KMeansOptions fast_opts;
      fast_opts.prune = true;
      fast_opts.pool = &pool;
      util::Rng r(5);
      const auto pruned = cluster::kmeans(points, s.k, init, r, fast_opts);
      expect_same(reference, pruned, points,
                  describe(s) + " threads=" + std::to_string(threads));
    }
  }
}

TEST(PerfKernels, PrunedKMeansTraceIsByteIdentical) {
  const cluster::UniformCoverageInit init;
  for (const Shape& s : {Shape{120, 8, 6, 10}, Shape{600, 12, 40, 60}}) {
    const auto points = make_points(s.n, s.dim, s.regions, 31);
    const auto trace_of = [&](bool prune) {
      std::ostringstream out;
      {
        obs::Tracer tracer(std::make_unique<obs::JsonlTraceSink>(out));
        util::set_trace_enabled(true);
        obs::TraceContext root = obs::TraceContext::root(&tracer, 1);
        cluster::KMeansOptions opts;
        opts.prune = prune;
        opts.trace = &root;
        util::Rng r(77);
        const auto res = cluster::kmeans(points, s.k, init, r, opts);
        (void)res;
        tracer.flush();
        util::set_trace_enabled(false);
      }
      return out.str();
    };
    const std::string naive = trace_of(false);
    const std::string pruned = trace_of(true);
    EXPECT_FALSE(naive.empty());
    EXPECT_EQ(naive, pruned) << describe(s);
  }
}

TEST(PerfKernels, PrunedKMeansMatchesNaiveUnderWarmStarts) {
  const cluster::UniformCoverageInit init;
  for (const Shape& s : {Shape{180, 9, 7, 12}, Shape{800, 12, 40, 60}}) {
    for (std::uint64_t seed : {3u, 19u, 88u}) {
      const auto points = make_points(s.n, s.dim, s.regions, seed);
      // Warm-start centres from a previous (cold) run's output — the exact
      // shape a re-formation feeds back in — plus a perturbed variant so
      // the warm rows are NOT already a fixed point of Lloyd iteration,
      // and a duplicated variant whose repeated rows start empty, so the
      // first assignment already goes through repair.
      util::Rng r_prev(seed + 500);
      cluster::KMeansOptions prev_opts;
      prev_opts.restarts = 1;
      const auto prev = cluster::kmeans(points, s.k, init, r_prev, prev_opts);
      cluster::Points perturbed = prev.centers;
      util::Rng jitter(seed + 900);
      for (auto& row : perturbed)
        for (double& x : row) x += jitter.normal(0.0, 2.0);
      cluster::Points duplicated = prev.centers;
      for (std::size_t c = 1; c < s.k; c += 3) duplicated[c] = duplicated[c - 1];
      for (const cluster::Points& warm : {prev.centers, perturbed, duplicated}) {
        for (std::size_t restarts : {1u, 3u}) {
          cluster::KMeansOptions opts;
          opts.restarts = restarts;
          opts.initial_centers = warm;
          expect_pruned_matches_naive(points, s.k, init, seed * 17 + 2, opts,
                                      "warm " + describe(s) +
                                          " seed=" + std::to_string(seed) +
                                          " restarts=" +
                                          std::to_string(restarts));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Packed RTT-matrix build == dense build + from_full.

TEST(PerfKernels, PackedRttMatrixMatchesDenseBuild) {
  util::Rng rng(1234);
  util::Rng topo_rng = rng.fork(1);
  util::Rng place_rng = rng.fork(2);
  const auto topo = topology::generate_transit_stub(
      core::scaled_topology_for(96), topo_rng);
  const auto placement = topology::place_hosts(
      topo, 97, topology::PlacementOptions{}, place_rng);

  const auto full = topology::host_rtt_matrix(topo.graph, placement);
  const auto dense = net::DistanceMatrix::from_full(full);
  const auto packed = core::host_rtt_distance_matrix(topo.graph, placement);

  ASSERT_EQ(dense.size(), packed.size());
  for (std::size_t i = 0; i < dense.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_EQ(dense.at(i, j), packed.at(i, j)) << i << "," << j;
}

// ---------------------------------------------------------------------------
// Arena / CSR Dijkstra == reference dijkstra().

TEST(PerfKernels, ArenaAndCsrDijkstraMatchReference) {
  util::Rng rng(55);
  const auto topo = topology::generate_transit_stub(
      core::scaled_topology_for(80), rng);
  std::vector<topology::NodeId> sources = topo.stub_nodes();
  if (sources.size() > 24) sources.resize(24);
  ASSERT_FALSE(sources.empty());

  // One scratch reused across every source: the contract says reuse
  // cannot change results.
  topology::DijkstraScratch scratch;
  const topology::CsrGraphView csr(topo.graph);
  std::vector<double> arena_out, csr_out;
  for (topology::NodeId s : sources) {
    const auto reference = topology::dijkstra(topo.graph, s);
    topology::dijkstra_into(topo.graph, s, scratch, arena_out);
    csr.dijkstra_into(s, scratch, csr_out);
    EXPECT_EQ(reference, arena_out) << "source " << s;
    EXPECT_EQ(reference, csr_out) << "source " << s;
  }

  const auto multi = topology::multi_source_shortest_paths(topo.graph, sources);
  ASSERT_EQ(multi.size(), sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i)
    EXPECT_EQ(multi[i], topology::dijkstra(topo.graph, sources[i]))
        << "source " << sources[i];
}

// ---------------------------------------------------------------------------
// Prober::measure_many == the equivalent measure_rtt_ms sequence,
// including the RNG stream position afterwards.

net::DistanceMatrix small_matrix(std::size_t hosts, std::uint64_t seed) {
  util::Rng rng(seed);
  net::DistanceMatrix m(hosts);
  for (std::size_t i = 1; i < hosts; ++i) {
    auto row = m.lower_row(i);
    for (std::size_t j = 0; j < i; ++j) row[j] = rng.uniform(5.0, 300.0);
  }
  return m;
}

TEST(PerfKernels, MeasureManyMatchesSequentialProbes) {
  const net::MatrixRttProvider provider(small_matrix(32, 9));
  const net::ProberOptions opts;
  net::Prober seq(provider, opts, util::Rng(3));
  net::Prober batch(provider, opts, util::Rng(3));

  std::vector<net::HostId> dsts;
  for (net::HostId h = 0; h < 32; ++h) dsts.push_back(h);

  std::vector<double> expected(dsts.size()), got(dsts.size());
  for (std::size_t i = 0; i < dsts.size(); ++i)
    expected[i] = seq.measure_rtt_ms(5, dsts[i]);
  batch.measure_many(5, dsts, got);

  EXPECT_EQ(expected, got);
  EXPECT_EQ(seq.probes_sent(), batch.probes_sent());
  // Same number of RNG draws consumed: the NEXT measurement (which uses
  // fresh jitter draws) must agree too.
  EXPECT_EQ(seq.measure_rtt_ms(7, 21), batch.measure_rtt_ms(7, 21));
  EXPECT_EQ(seq.probes_sent(), batch.probes_sent());
}

// ---------------------------------------------------------------------------
// Raw squared_l2 kernel == vector overload, and PackedPoints is an exact
// snapshot.

TEST(PerfKernels, PackedPointsAndRawDistanceMatchVectorForm) {
  const auto points = make_points(50, 17, 6, 8);
  const cluster::PackedPoints packed(points);
  ASSERT_EQ(packed.size(), points.size());
  ASSERT_EQ(packed.dim(), points[0].size());
  for (std::size_t i = 0; i < points.size(); ++i)
    for (std::size_t j = 0; j < packed.dim(); ++j)
      EXPECT_EQ(packed.row(i)[j], points[i][j]);

  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t j = (i * 13 + 7) % points.size();
    EXPECT_EQ(cluster::squared_l2(points[i], points[j]),
              cluster::squared_l2(packed.row(i), packed.row(j), packed.dim()));
  }
  EXPECT_EQ(cluster::squared_l2(packed.row(0), packed.row(0), packed.dim()),
            0.0);
}

}  // namespace
