// Shard planning: which worker shard owns which formed group.
//
// The sharded engine partitions the caches across shards BY GROUP, never
// splitting a group. That choice is what makes conservative parallel
// execution cheap here: every event the simulation core executes between
// barriers (request arrivals and completions) touches only the requesting
// cache's group — its members, its beacon directory — plus read-only
// shared state. With whole groups pinned to a shard, the beacon/directory
// traffic of the cooperative-miss protocol is shard-local by construction
// and there are NO cross-shard events inside an epoch window; everything
// that couples shards (origin updates, failures, churn, control ticks,
// summary refreshes) is a barrier executed by the coordinator with all
// shards quiescent (docs/scaling.md).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "cache/directory.h"
#include "net/rtt_provider.h"

namespace ecgf::shard {

/// Deterministic group → shard assignment, balanced by member count.
class ShardPlan {
 public:
  /// Greedy balance: groups in descending size (ties: ascending group id)
  /// land on the currently lightest shard (ties: lowest shard id). Fully
  /// deterministic, so every run — and every shard count — sees the same
  /// plan for the same partition.
  ShardPlan(const std::vector<std::vector<cache::CacheIndex>>& groups,
            std::size_t cache_count, std::size_t shard_count);

  std::size_t shard_count() const { return shard_count_; }
  std::size_t shard_of_group(std::size_t group) const {
    return group_to_shard_[group];
  }
  std::size_t shard_of_cache(cache::CacheIndex cache) const {
    return cache_to_shard_[cache];
  }
  /// Caches per shard. A shard may legitimately own zero caches (more
  /// shards than groups, or every group it held dissolved at a
  /// reformation); it then simply executes empty windows.
  const std::vector<std::size_t>& loads() const { return loads_; }
  /// True when every cache lives on the same shard under both plans.
  bool same_cache_shards(const ShardPlan& other) const {
    return cache_to_shard_ == other.cache_to_shard_;
  }

 private:
  std::size_t shard_count_;
  std::vector<std::size_t> group_to_shard_;
  std::vector<std::size_t> cache_to_shard_;
  std::vector<std::size_t> loads_;
};

/// Largest network whose lookahead is derived exactly from every cache
/// pair; above it, min_cross_shard_rtt_ms samples pairs.
inline constexpr std::size_t kExactLookaheadCaches = 4096;

/// True when cache `c` should count toward the cross-shard lookahead.
/// Down or departed caches generate no cross-shard influence, so the
/// derivation skips them.
using ActiveCachePredicate = std::function<bool(cache::CacheIndex)>;

/// Conservative lookahead: the minimum ground-truth RTT between *active*
/// caches living in different shards, evaluated at t = 0. This is the
/// classic CMB bound — no influence can cross shards faster than the
/// fastest cross-shard link — and it seeds the INITIAL epoch between
/// synchronisation cuts (the driver then widens adaptively; see
/// docs/scaling.md). Exact scan for small networks; deterministic stride
/// sampling above `exact_limit` caches (a sampled minimum can only
/// over-estimate, and correctness never depends on it: group-aligned
/// sharding routes all cross-shard influence through barriers, so the
/// epoch length only bounds buffer memory). `active` restricts the pair
/// set (nullptr = every cache counts); a pair is considered only when
/// both endpoints are active.
double min_cross_shard_rtt_ms(const ShardPlan& plan,
                              const net::RttProvider& rtt,
                              std::size_t cache_count,
                              std::size_t exact_limit = kExactLookaheadCaches,
                              const ActiveCachePredicate& active = nullptr);

/// min_cross_shard_rtt_ms for a run that reshards many times over one RTT
/// oracle, with the same value at every call. Under the RttProvider
/// contract the t = 0 pair RTTs never change during a run, so the first
/// exact derivation makes one pass over all n(n-1)/2 pairs and keeps the
/// kKeptPairsPerCache·n closest, sorted by (rtt, a, b). Every derivation
/// then walks that list to the first pair whose caches are both active and
/// sit in different shards: its RTT is the exact minimum, because every
/// pair left out is at least as far as the list's largest entry. When no
/// kept pair qualifies (say, every close pair is intra-shard) the full scan
/// answers instead. Above kExactLookaheadCaches the stride sampler answers
/// every call, as before.
///
/// One instance serves one run: every call must pass the same oracle and
/// cache count.
class CrossShardLookahead {
 public:
  /// Kept pairs per cache. A churning 1,024-cache run finds its answer
  /// about 50 entries down a 2,048-entry list; a longer list costs peak
  /// memory and buys no fewer scans.
  static constexpr std::size_t kKeptPairsPerCache = 2;

  /// The value min_cross_shard_rtt_ms(plan, rtt, cache_count,
  /// kExactLookaheadCaches, active) returns.
  double min_rtt_ms(const ShardPlan& plan, const net::RttProvider& rtt,
                    std::size_t cache_count,
                    const ActiveCachePredicate& active = nullptr);

  /// Pairs kept by the one pass (0 before it, and above the exact limit).
  std::size_t kept_pairs() const { return pairs_.size(); }
  /// Derivations that found no qualifying kept pair and ran the full scan.
  std::size_t fallbacks() const { return fallbacks_; }

 private:
  struct Pair {
    double rtt_ms;
    cache::CacheIndex a, b;
  };

  void build(const net::RttProvider& rtt, std::size_t cache_count);

  const net::RttProvider* rtt_ = nullptr;  ///< oracle the list was built from
  std::size_t cache_count_ = 0;
  std::vector<Pair> pairs_;
  std::size_t fallbacks_ = 0;
};

}  // namespace ecgf::shard
