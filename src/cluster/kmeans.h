// K-means over feature vectors — step 3 of the SL/SDSL schemes (paper §3.3).
// Initialisation is pluggable (this is exactly where SL and SDSL differ);
// iteration, reassignment, and termination are shared.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/init.h"
#include "cluster/points.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace ecgf::util {
class ThreadPool;
}

namespace ecgf::cluster {

struct KMeansOptions {
  std::size_t max_iterations = 100;
  /// Terminate when the number of reassigned points in an iteration drops
  /// to max(1, reassignment_fraction × n) or below ("becomes minimal").
  double reassignment_fraction = 0.005;
  /// Independent runs (fresh init each); the result with the lowest
  /// within-cluster sum of squares wins. Shields the schemes from K-means'
  /// sensitivity to initial centres.
  std::size_t restarts = 3;
  /// Pool the restarts fan out on; nullptr = the process-wide pool
  /// (ECGF_THREADS). Each restart runs on a deterministically forked RNG
  /// and the best-WCSS reduction breaks ties toward the lowest restart
  /// index, so the result is identical at every thread count.
  util::ThreadPool* pool = nullptr;
  /// Optional trace stream. Each restart gets a deterministically derived
  /// child stream (forked serially, like the RNGs), so trace files stay
  /// bit-identical at every thread count. Events: `kmeans_iteration` per
  /// Lloyd step, `kmeans_restart` per finished restart, plus the init
  /// strategy's `center_chosen`/`guard_abandoned`.
  obs::TraceContext* trace = nullptr;
  /// Use the optimised Lloyd kernel: contiguous (packed) point storage,
  /// Yinyang group-bound pruning in the assignment step (one lower bound
  /// per group of about ten centres; Hamerly's kernel when k < 20), and
  /// incremental (dirty-cluster) centre recomputation. The optimised
  /// kernel is **bit-identical** to the naive one — same assignments,
  /// centres, iteration counts, WCSS, and trace events, because it only
  /// skips a point's centre scan when the bounds prove the naive scan
  /// would keep the current assignment (strict inequalities, so even
  /// exact distance ties break identically), falls back to the very same
  /// scan loop otherwise, and recomputes a changed cluster's centre with
  /// the same additions in the same order as the full recompute
  /// (asserted across seeds, shapes, and thread counts by
  /// tests/perf_kernels_test). Set false to run the naive reference
  /// kernel, e.g. to measure the speedup (bench/perf does).
  bool prune = true;
  /// Warm start: when non-empty, restart 0 seeds its centres from these
  /// vectors verbatim (no init-strategy draws, no RNG traffic for that
  /// restart) and the remaining restarts use the init strategy as usual —
  /// so a re-formation can resume from the previous grouping's centroids
  /// while keeping cold restarts as a safety net. Must hold exactly k
  /// rows of the points' dimension. The pruned and naive kernels stay
  /// bit-identical under warm starts (asserted by tests/perf_kernels_test).
  Points initial_centers{};
};

struct KMeansResult {
  /// assignment[i] = cluster id of point i, in [0, k).
  std::vector<std::uint32_t> assignment;
  /// Final cluster mean vectors, k rows.
  Points centers;
  std::size_t iterations = 0;
  bool converged = false;

  std::size_t cluster_count() const { return centers.size(); }
  /// Point indices per cluster (derived view).
  std::vector<std::vector<std::size_t>> groups() const;
};

/// Run K-means with the given initial-centre strategy. Every cluster in the
/// result is non-empty (empty clusters are repaired by stealing the point
/// farthest from its centre). Deterministic given (points, k, init, rng).
KMeansResult kmeans(const Points& points, std::size_t k,
                    const InitStrategy& init, util::Rng& rng,
                    const KMeansOptions& options = {});

/// Sum over points of the squared L2 distance to their cluster centre —
/// K-means' own objective, used in tests as a monotonicity invariant.
double within_cluster_ss(const Points& points, const KMeansResult& result);

}  // namespace ecgf::cluster
