// Thread-pool behaviour and the determinism contract of the parallel
// layers: identical bits at 1, 2, and 8 threads for K-means restarts,
// multi-source Dijkstra, and full SweepRunner sweeps. Also the
// Accumulator::merge algebra the sweep summaries rely on.
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/init.h"
#include "cluster/kmeans.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "topology/shortest_paths.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ecgf {
namespace {

// ----------------------------------------------------------------------
// ThreadPool mechanics.
// ----------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SerialPoolHasNoWorkersAndStillCovers) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<int> hits(64, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  util::ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 17) throw std::runtime_error("boom");
                                   completed.fetch_add(1);
                                 }),
               std::runtime_error);
  // Remaining indices still drained; only the throwing one is missing.
  EXPECT_EQ(completed.load(), 99);
}

TEST(ThreadPool, BoundedQueueAcceptsBurstsLargerThanCapacity) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2, /*queue_capacity=*/4);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, ParallelMapPreservesInputOrder) {
  util::ThreadPool pool(4);
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 0);
  const std::vector<int> out =
      pool.parallel_map(items, [](const int& x) { return x * x; });
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16 * 8);
  pool.parallel_for(16, [&](std::size_t outer) {
    // From a worker this must run serially on the same thread (no
    // re-entering the bounded queue → no deadlock).
    pool.parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ----------------------------------------------------------------------
// Accumulator::merge — the reduction the sweep summaries use.
// ----------------------------------------------------------------------

TEST(AccumulatorMerge, MultiWayMergeMatchesSinglePass) {
  util::Rng rng(301);
  std::vector<double> xs(999);
  for (double& x : xs) x = rng.uniform(-50.0, 200.0);

  util::Accumulator whole;
  for (double x : xs) whole.add(x);

  // Split into 7 uneven shards, accumulate each, merge pairwise.
  util::Accumulator merged;
  std::size_t pos = 0;
  for (std::size_t shard = 0; shard < 7; ++shard) {
    const std::size_t take = shard == 6 ? xs.size() - pos : 50 + 20 * shard;
    util::Accumulator part;
    for (std::size_t i = 0; i < take; ++i) part.add(xs[pos + i]);
    pos += take;
    merged.merge(part);
  }
  ASSERT_EQ(pos, xs.size());

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
}

TEST(AccumulatorMerge, EmptyIsIdentityOnBothSides) {
  util::Accumulator filled;
  filled.add(3.0);
  filled.add(9.0);

  util::Accumulator lhs = filled;
  lhs.merge(util::Accumulator{});  // empty RHS: no-op
  EXPECT_EQ(lhs.count(), 2u);
  EXPECT_DOUBLE_EQ(lhs.mean(), 6.0);
  EXPECT_DOUBLE_EQ(lhs.min(), 3.0);
  EXPECT_DOUBLE_EQ(lhs.max(), 9.0);

  util::Accumulator empty;
  empty.merge(filled);  // empty LHS: adopts RHS
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 6.0);
  EXPECT_DOUBLE_EQ(empty.min(), 3.0);
  EXPECT_DOUBLE_EQ(empty.max(), 9.0);
}

// ----------------------------------------------------------------------
// Determinism at 1 / 2 / 8 threads.
// ----------------------------------------------------------------------

cluster::Points blob_points(std::size_t n, util::Rng& rng) {
  cluster::Points points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double cx = static_cast<double>(i % 3) * 40.0;
    points.push_back({cx + rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)});
  }
  return points;
}

TEST(Determinism, KMeansRestartsIdenticalAtAnyThreadCount) {
  util::Rng gen(401);
  const cluster::Points points = blob_points(90, gen);
  const cluster::UniformCoverageInit init;

  auto run_with = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    cluster::KMeansOptions options;
    options.restarts = 5;
    options.pool = &pool;
    util::Rng rng(402);
    return cluster::kmeans(points, 3, init, rng, options);
  };

  const auto base = run_with(1);
  for (std::size_t threads : {2u, 8u}) {
    const auto other = run_with(threads);
    EXPECT_EQ(other.assignment, base.assignment) << threads << " threads";
    EXPECT_EQ(other.centers, base.centers) << threads << " threads";
    EXPECT_EQ(other.iterations, base.iterations);
    EXPECT_EQ(other.converged, base.converged);
  }
}

TEST(Determinism, MultiSourceDijkstraIdenticalAtAnyThreadCount) {
  core::TestbedParams params;
  params.cache_count = 24;
  const core::EdgeNetwork network = core::make_testbed_network(params, 55);
  const topology::Graph& graph = network.topology().graph;
  std::vector<topology::NodeId> sources;
  for (topology::NodeId v = 0;
       v < graph.node_count() && sources.size() < 12; v += 3) {
    sources.push_back(v);
  }

  util::ThreadPool serial(1);
  const auto base =
      topology::multi_source_shortest_paths(graph, sources, &serial);
  for (std::size_t threads : {2u, 8u}) {
    util::ThreadPool pool(threads);
    const auto other =
        topology::multi_source_shortest_paths(graph, sources, &pool);
    EXPECT_EQ(other, base) << threads << " threads";
  }
}

std::vector<core::SweepPoint> small_sweep() {
  core::TestbedParams testbed;
  testbed.cache_count = 12;
  testbed.catalog.document_count = 120;
  testbed.workload.duration_ms = 20'000.0;
  testbed.workload.requests_per_cache_per_s = 2.0;

  core::SchemeConfig config;
  config.num_landmarks = 6;
  const std::shared_ptr<const core::GroupingScheme> sl =
      std::make_shared<const core::SlScheme>(config);
  const std::shared_ptr<const core::GroupingScheme> sdsl =
      std::make_shared<const core::SdslScheme>(config);

  std::vector<core::SweepPoint> points;
  for (const auto& scheme : {sl, sdsl}) {
    for (std::uint64_t seed : {9001ull, 9002ull}) {
      core::SweepPoint p;
      p.testbed = testbed;
      p.testbed_seed = seed;
      p.coordinator_seed = seed * 17 + (scheme == sl);
      p.scheme = scheme;
      p.group_count = 3;
      p.formation_runs = 2;
      points.push_back(std::move(p));
    }
  }
  // One formation-only point exercising the network-only testbed path.
  core::SweepPoint quality;
  quality.testbed = testbed;
  quality.testbed_seed = 9003;
  quality.coordinator_seed = 31;
  quality.scheme = sl;
  quality.group_count = 4;
  quality.simulate = false;
  points.push_back(std::move(quality));
  return points;
}

TEST(Determinism, SweepRunnerIdenticalAtAnyThreadCount) {
  const std::vector<core::SweepPoint> points = small_sweep();

  auto run_with = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    return core::SweepRunner(&pool).run(points);
  };

  const auto base = run_with(1);
  ASSERT_EQ(base.size(), points.size());
  for (const auto& r : base) {
    EXPECT_GT(r.gicost_ms.count(), 0u);
  }
  EXPECT_EQ(base.back().report.requests_processed, 0u);  // simulate = false
  EXPECT_GT(base.front().report.requests_processed, 0u);

  for (std::size_t threads : {2u, 8u}) {
    const auto other = run_with(threads);
    ASSERT_EQ(other.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(other[i].grouping.partition(), base[i].grouping.partition())
          << "point " << i << " at " << threads << " threads";
      EXPECT_EQ(other[i].gicost_ms.count(), base[i].gicost_ms.count());
      EXPECT_DOUBLE_EQ(other[i].gicost_ms.mean(), base[i].gicost_ms.mean());
      EXPECT_DOUBLE_EQ(other[i].report.avg_latency_ms,
                       base[i].report.avg_latency_ms);
      EXPECT_EQ(other[i].report.raw_counts.total(),
                base[i].report.raw_counts.total());
      EXPECT_EQ(other[i].report.counts.group_hits,
                base[i].report.counts.group_hits);
    }
    const core::SweepSummary a = core::summarize(base);
    const core::SweepSummary b = core::summarize(other);
    EXPECT_EQ(b.gicost_ms.count(), a.gicost_ms.count());
    EXPECT_DOUBLE_EQ(b.gicost_ms.mean(), a.gicost_ms.mean());
    EXPECT_DOUBLE_EQ(b.latency_ms.mean(), a.latency_ms.mean());
    EXPECT_DOUBLE_EQ(b.group_hit_rate.mean(), a.group_hit_rate.mean());
  }
}

}  // namespace
}  // namespace ecgf
