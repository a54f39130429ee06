#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "obs/profile.h"
#include "util/thread_pool.h"

namespace ecgf::cluster {

std::vector<std::vector<std::size_t>> KMeansResult::groups() const {
  std::vector<std::vector<std::size_t>> out(centers.size());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    out[assignment[i]].push_back(i);
  }
  return out;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest centre id for a point; ties break toward the lower id so the
/// algorithm is deterministic.
std::uint32_t nearest_center(const std::vector<double>& p,
                             const Points& centers) {
  std::uint32_t best = 0;
  double best_d = kInf;
  for (std::uint32_t c = 0; c < centers.size(); ++c) {
    const double d = squared_l2(p, centers[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

void recompute_centers(const Points& points,
                       const std::vector<std::uint32_t>& assignment,
                       Points& centers) {
  const std::size_t dim = points[0].size();
  std::vector<std::size_t> counts(centers.size(), 0);
  for (auto& c : centers) std::fill(c.begin(), c.end(), 0.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto& c = centers[assignment[i]];
    for (std::size_t d = 0; d < dim; ++d) c[d] += points[i][d];
    ++counts[assignment[i]];
  }
  for (std::size_t k = 0; k < centers.size(); ++k) {
    if (counts[k] == 0) continue;  // handled by empty-cluster repair
    const double inv = 1.0 / static_cast<double>(counts[k]);
    for (double& x : centers[k]) x *= inv;
  }
}

/// Give every empty cluster the point farthest from its current centre
/// (among clusters with >1 member), keeping all k clusters non-empty.
void repair_empty_clusters(const Points& points,
                           std::vector<std::uint32_t>& assignment,
                           Points& centers) {
  const std::size_t k = centers.size();
  std::vector<std::size_t> counts(k, 0);
  for (std::uint32_t a : assignment) ++counts[a];
  for (std::uint32_t empty = 0; empty < k; ++empty) {
    if (counts[empty] != 0) continue;
    // Farthest point in any cluster that can spare one.
    double best_d = -1.0;
    std::size_t best_i = points.size();
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (counts[assignment[i]] <= 1) continue;
      const double d = squared_l2(points[i], centers[assignment[i]]);
      if (d > best_d) {
        best_d = d;
        best_i = i;
      }
    }
    if (best_i == points.size()) break;  // k == n edge: nothing to steal
    --counts[assignment[best_i]];
    assignment[best_i] = empty;
    ++counts[empty];
    centers[empty] = points[best_i];
  }
}

}  // namespace

namespace {

/// One full K-means run (init → iterate → terminate). `restart` and
/// `trace` only feed the trace events. `warm` (nullable) supplies explicit
/// initial centres, bypassing the init strategy for this run.
KMeansResult kmeans_single(const Points& points, std::size_t k,
                           const InitStrategy& init, util::Rng& rng,
                           const KMeansOptions& options, std::size_t restart,
                           obs::TraceContext* trace, const Points* warm) {
  const std::size_t n = points.size();

  // --- Initialisation phase.
  KMeansResult result;
  result.centers.reserve(k);
  if (warm != nullptr) {
    result.centers = *warm;
  } else {
    const std::vector<std::size_t> seeds = init.choose(points, k, rng, trace);
    ECGF_ASSERT(seeds.size() == k);
    for (std::size_t s : seeds) result.centers.push_back(points[s]);
  }
  result.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.assignment[i] = nearest_center(points[i], result.centers);
  }
  repair_empty_clusters(points, result.assignment, result.centers);

  // --- Iterative phase.
  const std::size_t reassignment_floor = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.reassignment_fraction *
                                  static_cast<double>(n)));
  for (result.iterations = 0; result.iterations < options.max_iterations;
       ++result.iterations) {
    recompute_centers(points, result.assignment, result.centers);
    std::size_t reassigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = nearest_center(points[i], result.centers);
      if (c != result.assignment[i]) {
        result.assignment[i] = c;
        ++reassigned;
      }
    }
    repair_empty_clusters(points, result.assignment, result.centers);
    if (trace != nullptr) {
      trace->emit(obs::TraceEvent::kmeans_iteration(restart, result.iterations,
                                                    reassigned));
    }
    if (reassigned <= reassignment_floor) {
      result.converged = true;
      ++result.iterations;
      break;
    }
  }

  // --- Termination phase: centres reflect final membership.
  recompute_centers(points, result.assignment, result.centers);
  return result;
}

// ----------------------------------------------------------------------
// Optimised (pruned) kernel: Yinyang group bounds (Ding et al., ICML 2015).
//
// The k centres are split once per restart into t = max(1, k/10) groups.
// Every point keeps one upper bound (distance to its own centre) and one
// lower bound per group (distance to the nearest OTHER centre in that
// group). Each iteration a group bound decays by the largest drift of a
// centre in that group, not by the global largest drift, so groups far
// from a point stay cleared for many iterations. t = 1 is Hamerly's
// single-bound kernel.
//
// Exactness argument, step by step:
//  * Distances are computed by the same squared_l2 kernel over the same
//    values in the same order → identical bits where they are computed.
//  * The naive scan returns the lexicographic minimum of (distance, centre
//    index) — strict `<` in ascending order. The group scan picks the
//    winner by that same pair, so it returns the same centre, exact ties
//    included, whenever every centre it skips is provably strictly
//    farther than the point's current centre.
//  * A point (or one of its groups) is skipped only when conservative
//    bounds prove exactly that (strict `<` against slack-inflated bounds):
//    skipping changes nothing observable. The grouping itself only decides
//    how much is skipped, never the result.
//  * Centres are recomputed only for clusters whose membership changed
//    ("dirty"); an untouched cluster's centre is bit-identical to what a
//    full recompute would produce because the full recompute also sums
//    that cluster's members in ascending point order. Any membership
//    change (assignment or repair) marks both clusters dirty.
//  * Empty-cluster repair mirrors the naive routine operation for
//    operation; repair moves a centre outside the bound bookkeeping, so
//    a repair invalidates all bounds (the next pass scans fully).
// ----------------------------------------------------------------------

/// Relative slack applied to every maintained bound so floating-point
/// rounding in the sqrt/drift bookkeeping can never turn a mathematically
/// valid triangle-inequality bound into an invalid one. Inflating an
/// upper bound / deflating a lower bound only costs pruning opportunity,
/// never correctness. The true rounding error is O(dim · ulp) ≈ 1e-13
/// relative; 1e-9 dominates it comfortably.
constexpr double kUpperSlack = 1.0 + 1e-9;
constexpr double kLowerSlack = 1.0 - 1e-9;

/// Lloyd steps the centre grouping runs (Ding et al. use five).
constexpr std::size_t kGroupingSteps = 5;

/// A partition of the centre ids into groups, fixed for one restart.
/// Group g is members[begin[g], begin[g + 1]), ascending centre ids.
struct CenterGroups {
  std::vector<std::uint32_t> members;
  std::vector<std::size_t> begin;
  std::vector<std::uint32_t> group_of;  ///< centre id → group

  std::size_t count() const { return begin.size() - 1; }
};

/// Group the k centres by running kGroupingSteps Lloyd steps over the
/// centre rows themselves (the naive kernel's own assignment and update
/// helpers), seeded with the evenly spaced centres g·k/t. Draws no random
/// numbers and breaks ties toward the lower group.
CenterGroups group_centers(const std::vector<double>& centers, std::size_t k,
                           std::size_t dim) {
  const std::size_t t = std::max<std::size_t>(1, k / 10);
  Points rows(k), means;
  for (std::size_t c = 0; c < k; ++c) {
    rows[c].assign(centers.data() + c * dim, centers.data() + (c + 1) * dim);
  }
  for (std::size_t g = 0; g < t; ++g) means.push_back(rows[g * k / t]);
  std::vector<std::uint32_t> group_of(k, 0);
  for (std::size_t step = 0; step < kGroupingSteps; ++step) {
    for (std::size_t c = 0; c < k; ++c) {
      group_of[c] = nearest_center(rows[c], means);
    }
    recompute_centers(rows, group_of, means);
  }

  // Counting sort of the centre ids by group. An empty group has nothing
  // to scan and its bound is infinite, so it costs only its bound slot.
  CenterGroups out;
  out.group_of = group_of;
  out.begin.assign(t + 1, 0);
  for (std::uint32_t g : group_of) ++out.begin[g + 1];
  for (std::size_t g = 0; g < t; ++g) out.begin[g + 1] += out.begin[g];
  out.members.resize(k);
  std::vector<std::size_t> fill(out.begin.begin(), out.begin.end() - 1);
  for (std::uint32_t c = 0; c < k; ++c) out.members[fill[group_of[c]]++] = c;
  return out;
}

struct NearestTwo {
  std::uint32_t best = 0;
  double best_d2 = kInf;
  double second_d2 = kInf;
};

/// Local filter: exact nearest centre of `p` among the centres the group
/// bounds cannot rule out. `a` is the point's current centre and `a_d2`
/// its exact squared distance; `upper` bounds distance(p, a) from above
/// and `lower[g]` bounds the distance to every centre of group g other
/// than `a` from below. Groups with upper < lower[g] are skipped: all
/// their centres are strictly farther than `a`, so they can neither win
/// nor tie. Each other group is scanned in ascending centre order with
/// nearest_center's strict `<` rule, tracking its two smallest distances;
/// the winner is the lexicographic minimum of (squared distance, centre
/// id) over `a` and the group winners — the naive scan's winner. On return
/// `lower` holds the bounds for the returned centre and `best_d2` its
/// exact squared distance. `scan` is t entries of scratch.
std::uint32_t nearest_by_groups(const double* p, std::uint32_t a, double a_d2,
                                double upper, double* lower,
                                const double* centers, std::size_t dim,
                                const CenterGroups& groups, NearestTwo* scan,
                                double& best_d2) {
  const std::size_t t = groups.count();
  std::uint32_t best = a;
  best_d2 = a_d2;
  for (std::size_t g = 0; g < t; ++g) {
    if (upper < lower[g]) continue;
    NearestTwo nt;
    for (std::size_t m = groups.begin[g]; m < groups.begin[g + 1]; ++m) {
      const std::uint32_t c = groups.members[m];
      const double d2 = c == a ? a_d2 : squared_l2(p, centers + c * dim, dim);
      if (d2 < nt.best_d2) {
        nt.second_d2 = nt.best_d2;
        nt.best_d2 = d2;
        nt.best = c;
      } else if (d2 < nt.second_d2) {
        nt.second_d2 = d2;
      }
    }
    scan[g] = nt;
    if (nt.best_d2 < best_d2 || (nt.best_d2 == best_d2 && nt.best < best)) {
      best_d2 = nt.best_d2;
      best = nt.best;
    }
  }
  for (std::size_t g = 0; g < t; ++g) {
    if (upper < lower[g]) {
      // A skipped group keeps its bound, except that a centre leaving the
      // point joins the "other centres" of its own group.
      if (best != a && g == groups.group_of[a]) {
        lower[g] = std::min(lower[g], std::sqrt(a_d2) * kLowerSlack);
      }
      continue;
    }
    // Nearest centre of the group other than `best`: when the group's own
    // winner is `best` that is the runner-up, otherwise the winner.
    const double other_d2 =
        scan[g].best == best ? scan[g].second_d2 : scan[g].best_d2;
    lower[g] = std::sqrt(other_d2) * kLowerSlack;
  }
  return best;
}

/// Full scan for a point without bounds: nearest_center's loop (ascending
/// centre order, strict `<`), plus each group's bound — its nearest
/// centre other than the winner — read off the distances kept in `dist`
/// (k doubles of scratch). Walks the centres contiguously, so it keeps the
/// naive scan's speed.
std::uint32_t nearest_full_scan(const double* p, const double* centers,
                                std::size_t k, std::size_t dim,
                                const CenterGroups& groups, double* dist,
                                double* lower, double& best_d2) {
  std::uint32_t best = 0;
  best_d2 = kInf;
  for (std::uint32_t c = 0; c < k; ++c) {
    const double d2 = squared_l2(p, centers + c * dim, dim);
    dist[c] = d2;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = c;
    }
  }
  for (std::size_t g = 0; g < groups.count(); ++g) {
    double other_d2 = kInf;
    for (std::size_t m = groups.begin[g]; m < groups.begin[g + 1]; ++m) {
      const std::uint32_t c = groups.members[m];
      if (c != best) other_d2 = std::min(other_d2, dist[c]);
    }
    lower[g] = std::sqrt(other_d2) * kLowerSlack;
  }
  return best;
}

/// Packed mirror of recompute_centers, restricted to dirty clusters.
/// Identical arithmetic: a dirty cluster is zeroed, its members are added
/// in ascending point order, and the sum is scaled by 1/count — exactly
/// the sequence of operations the full recompute performs for that
/// cluster. The dirty flags are left set — the caller reads them to
/// refresh drift and the centre-centre cache, then clears them. `counts`
/// is (re)filled for all clusters as a side product.
void recompute_dirty_centers(const PackedPoints& points,
                             const std::vector<std::uint32_t>& assignment,
                             std::vector<double>& centers, std::size_t k,
                             std::vector<std::uint8_t>& dirty,
                             std::vector<std::size_t>& counts) {
  const std::size_t dim = points.dim();
  counts.assign(k, 0);
  for (std::size_t c = 0; c < k; ++c) {
    if (dirty[c]) {
      std::fill_n(centers.data() + c * dim, dim, 0.0);
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint32_t a = assignment[i];
    ++counts[a];
    if (!dirty[a]) continue;
    const double* row = points.row(i);
    double* c = centers.data() + a * dim;
    for (std::size_t d = 0; d < dim; ++d) c[d] += row[d];
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (!dirty[c]) continue;
    if (counts[c] == 0) continue;  // zero vector, as in the naive kernel
    const double inv = 1.0 / static_cast<double>(counts[c]);
    double* row = centers.data() + c * dim;
    for (std::size_t d = 0; d < dim; ++d) row[d] *= inv;
  }
}

/// Packed mirror of repair_empty_clusters: same scan order, same
/// comparisons, same centre overwrite. Marks affected clusters dirty and
/// returns the number of repairs (0 = bounds stay valid).
std::size_t repair_empty_clusters_packed(const PackedPoints& points,
                                         std::vector<std::uint32_t>& assignment,
                                         std::vector<double>& centers,
                                         std::size_t k,
                                         std::vector<std::uint8_t>& dirty) {
  const std::size_t n = points.size();
  const std::size_t dim = points.dim();
  std::vector<std::size_t> counts(k, 0);
  for (std::uint32_t a : assignment) ++counts[a];
  std::size_t repairs = 0;
  for (std::uint32_t empty = 0; empty < k; ++empty) {
    if (counts[empty] != 0) continue;
    double best_d = -1.0;
    std::size_t best_i = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (counts[assignment[i]] <= 1) continue;
      const double d =
          squared_l2(points.row(i), centers.data() + assignment[i] * dim, dim);
      if (d > best_d) {
        best_d = d;
        best_i = i;
      }
    }
    if (best_i == n) break;  // k == n edge: nothing to steal
    --counts[assignment[best_i]];
    dirty[assignment[best_i]] = 1;
    assignment[best_i] = empty;
    ++counts[empty];
    dirty[empty] = 1;
    std::copy_n(points.row(best_i), dim, centers.data() + empty * dim);
    ++repairs;
  }
  return repairs;
}

/// Optimised twin of kmeans_single. `packed` is the shared contiguous
/// snapshot of `points` (built once per kmeans() call, read-only here).
KMeansResult kmeans_single_pruned(const Points& points,
                                  const PackedPoints& packed, std::size_t k,
                                  const InitStrategy& init, util::Rng& rng,
                                  const KMeansOptions& options,
                                  std::size_t restart,
                                  obs::TraceContext* trace,
                                  const Points* warm) {
  const std::size_t n = packed.size();
  const std::size_t dim = packed.dim();

  // --- Initialisation phase (identical RNG traffic to the naive twin:
  // the same init draws, or none at all under a warm start).
  std::vector<double> centers(k * dim);
  if (warm != nullptr) {
    for (std::size_t c = 0; c < k; ++c) {
      std::copy_n((*warm)[c].data(), dim, centers.data() + c * dim);
    }
  } else {
    const std::vector<std::size_t> seeds = init.choose(points, k, rng, trace);
    ECGF_ASSERT(seeds.size() == k);
    for (std::size_t c = 0; c < k; ++c) {
      std::copy_n(packed.row(seeds[c]), dim, centers.data() + c * dim);
    }
  }

  // Grouping comes after the init draws and draws nothing itself, so the
  // RNG stream and trace events match the naive twin.
  const CenterGroups groups = group_centers(centers, k, dim);
  const std::size_t t = groups.count();

  // Per point: one upper bound and t group lower bounds (row i of
  // `lower`), seeded by a full scan.
  std::vector<std::uint32_t> assignment(n);
  std::vector<double> upper(n), lower(n * t, 0.0);
  std::vector<NearestTwo> scan(t);
  std::vector<double> dist(k);
  for (std::size_t i = 0; i < n; ++i) {
    double best_d2 = 0.0;
    assignment[i] =
        nearest_full_scan(packed.row(i), centers.data(), k, dim, groups,
                          dist.data(), lower.data() + i * t, best_d2);
    upper[i] = std::sqrt(best_d2) * kUpperSlack;
  }
  std::vector<std::uint8_t> dirty(k, 1);
  bool bounds_valid =
      repair_empty_clusters_packed(packed, assignment, centers, k, dirty) == 0;

  // Reused per-iteration scratch — nothing below allocates after the
  // first iteration.
  std::vector<double> old_centers(k * dim);
  std::vector<double> drift(k, 0.0);
  std::vector<double> group_drift(t, 0.0);
  std::vector<double> half_gap(k, 0.0);
  std::vector<std::size_t> counts(k, 0);
  // Cached pairwise squared centre-centre distances feeding half_gap.
  // Only rows/columns of centres that actually moved are refreshed each
  // iteration (a clean centre's cached entries are bit-identical to a
  // fresh recompute: same kernel, same unchanged inputs), so the k²
  // pass degenerates to (moved × k) distances once the run settles.
  std::vector<double> center_gap2(k * k, 0.0);
  // The inter-centre bookkeeping pays off only while it is cheap next to
  // one n·k assignment pass.
  const bool use_half_gap = k * k <= n;

  const std::size_t reassignment_floor = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.reassignment_fraction *
                                  static_cast<double>(n)));

  KMeansResult result;
  for (result.iterations = 0; result.iterations < options.max_iterations;
       ++result.iterations) {
    std::copy(centers.begin(), centers.end(), old_centers.begin());
    recompute_dirty_centers(packed, assignment, centers, k, dirty, counts);

    // Drift and centre-gap refresh, moved centres only. A clean centre's
    // old and new rows are the same bits, so its drift is exactly 0.0 —
    // identical to computing sqrt(squared_l2(x, x)) — and its cached gap
    // entries are still current.
    std::fill(group_drift.begin(), group_drift.end(), 0.0);
    for (std::size_t c = 0; c < k; ++c) {
      drift[c] = dirty[c]
                     ? std::sqrt(squared_l2(old_centers.data() + c * dim,
                                            centers.data() + c * dim, dim)) *
                           kUpperSlack
                     : 0.0;
      double& gd = group_drift[groups.group_of[c]];
      gd = std::max(gd, drift[c]);
    }
    if (use_half_gap) {
      for (std::size_t a = 0; a < k; ++a) {
        if (!dirty[a]) continue;
        for (std::size_t b = 0; b < k; ++b) {
          if (b == a) continue;
          const double d2 = squared_l2(centers.data() + a * dim,
                                       centers.data() + b * dim, dim);
          center_gap2[a * k + b] = d2;
          center_gap2[b * k + a] = d2;
        }
      }
      for (std::size_t a = 0; a < k; ++a) {
        double min_d2 = kInf;
        const double* row = center_gap2.data() + a * k;
        for (std::size_t b = 0; b < k; ++b) {
          if (b != a) min_d2 = std::min(min_d2, row[b]);
        }
        half_gap[a] = 0.5 * std::sqrt(min_d2) * kLowerSlack;
      }
    }
    std::fill(dirty.begin(), dirty.end(), 0);

    std::size_t reassigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t a = assignment[i];
      double* lb = lower.data() + i * t;
      double global_lb = kInf;
      if (bounds_valid) {
        upper[i] = (upper[i] + drift[a]) * kUpperSlack;
        for (std::size_t g = 0; g < t; ++g) {
          lb[g] = std::max(0.0, (lb[g] - group_drift[g]) * kLowerSlack);
          global_lb = std::min(global_lb, lb[g]);
        }
      } else {
        upper[i] = kInf;
        std::fill_n(lb, t, 0.0);
        global_lb = 0.0;
      }
      // Global filter: every other centre is provably strictly farther.
      const double guard = std::max(half_gap[a], global_lb);
      if (upper[i] < guard) continue;
      // Tighten the upper bound to the exact current distance and retry.
      const double* row = packed.row(i);
      const double a_d2 = squared_l2(row, centers.data() + a * dim, dim);
      upper[i] = std::sqrt(a_d2) * kUpperSlack;
      if (upper[i] < guard) continue;
      // Local filter: scan only the groups the bounds cannot clear.
      double best_d2 = 0.0;
      const std::uint32_t best =
          nearest_by_groups(row, a, a_d2, upper[i], lb, centers.data(), dim,
                            groups, scan.data(), best_d2);
      if (best != a) {
        assignment[i] = best;
        ++reassigned;
        dirty[a] = 1;
        dirty[best] = 1;
      }
      upper[i] = std::sqrt(best_d2) * kUpperSlack;
    }
    bounds_valid =
        repair_empty_clusters_packed(packed, assignment, centers, k, dirty) ==
        0;
    if (trace != nullptr) {
      trace->emit(obs::TraceEvent::kmeans_iteration(restart, result.iterations,
                                                    reassigned));
    }
    if (reassigned <= reassignment_floor) {
      result.converged = true;
      ++result.iterations;
      break;
    }
  }

  recompute_dirty_centers(packed, assignment, centers, k, dirty, counts);

  result.assignment = std::move(assignment);
  result.centers.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    const double* row = centers.data() + c * dim;
    result.centers.emplace_back(row, row + dim);
  }
  return result;
}

}  // namespace

KMeansResult kmeans(const Points& points, std::size_t k,
                    const InitStrategy& init, util::Rng& rng,
                    const KMeansOptions& options) {
  const std::size_t dim = validate_points(points);
  ECGF_EXPECTS(k >= 1);
  ECGF_EXPECTS(k <= points.size());
  ECGF_EXPECTS(options.max_iterations >= 1);
  ECGF_EXPECTS(options.restarts >= 1);
  const bool warm_start = !options.initial_centers.empty();
  if (warm_start) {
    ECGF_EXPECTS(options.initial_centers.size() == k);
    for (const auto& c : options.initial_centers) {
      ECGF_EXPECTS(c.size() == dim);
    }
  }

  ECGF_PROF_SCOPE("cluster.kmeans");

  // One contiguous snapshot shared read-only by every restart.
  std::optional<PackedPoints> packed;
  if (options.prune) packed.emplace(points);

  // Fork one child RNG (and one child trace stream) per restart up front
  // (sequential, so the fork stream is independent of how the restarts are
  // later scheduled), fan the restarts across the pool, then reduce
  // serially with a fixed lowest-index tie-break: bit-identical output at
  // any thread count.
  std::vector<util::Rng> run_rngs;
  run_rngs.reserve(options.restarts);
  for (std::size_t run = 0; run < options.restarts; ++run) {
    run_rngs.push_back(rng.fork(run + 1));
  }
  std::vector<obs::TraceContext> run_traces(options.restarts);
  if (options.trace != nullptr) {
    for (auto& t : run_traces) t = options.trace->child();
  }

  std::vector<KMeansResult> candidates(options.restarts);
  std::vector<double> wcss(options.restarts, 0.0);
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::global_pool();
  pool.parallel_for(options.restarts, [&](std::size_t run) {
    obs::TraceContext* trace =
        options.trace != nullptr ? &run_traces[run] : nullptr;
    // Restart 0 carries the warm start (when given); the rest stay cold.
    const Points* warm =
        warm_start && run == 0 ? &options.initial_centers : nullptr;
    candidates[run] =
        options.prune
            ? kmeans_single_pruned(points, *packed, k, init, run_rngs[run],
                                   options, run, trace, warm)
            : kmeans_single(points, k, init, run_rngs[run], options, run,
                            trace, warm);
    // The packed reduction is the same squared_l2 sums over the same rows
    // in the same ascending order — bit-identical to within_cluster_ss.
    if (packed) {
      double total = 0.0;
      const auto& r = candidates[run];
      for (std::size_t i = 0; i < packed->size(); ++i) {
        total += squared_l2(packed->row(i), r.centers[r.assignment[i]].data(),
                            packed->dim());
      }
      wcss[run] = total;
    } else {
      wcss[run] = within_cluster_ss(points, candidates[run]);
    }
    if (trace != nullptr) {
      trace->emit(obs::TraceEvent::kmeans_restart(
          run, candidates[run].iterations, candidates[run].converged,
          wcss[run]));
    }
  });

  std::size_t best = 0;
  for (std::size_t run = 1; run < options.restarts; ++run) {
    if (wcss[run] < wcss[best]) best = run;
  }
  return std::move(candidates[best]);
}

double within_cluster_ss(const Points& points, const KMeansResult& result) {
  ECGF_EXPECTS(points.size() == result.assignment.size());
  double total = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    total += squared_l2(points[i], result.centers[result.assignment[i]]);
  }
  return total;
}

}  // namespace ecgf::cluster
