#include "shard/plan.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "util/expect.h"

namespace ecgf::shard {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ShardPlan::ShardPlan(const std::vector<std::vector<cache::CacheIndex>>& groups,
                     std::size_t cache_count, std::size_t shard_count)
    : shard_count_(shard_count) {
  ECGF_EXPECTS(shard_count >= 1);
  ECGF_EXPECTS(!groups.empty());

  std::vector<std::size_t> order(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) order[g] = g;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (groups[a].size() != groups[b].size()) {
      return groups[a].size() > groups[b].size();
    }
    return a < b;
  });

  group_to_shard_.assign(groups.size(), 0);
  loads_.assign(shard_count, 0);
  for (std::size_t g : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < shard_count; ++s) {
      if (loads_[s] < loads_[lightest]) lightest = s;
    }
    group_to_shard_[g] = lightest;
    loads_[lightest] += groups[g].size();
  }

  cache_to_shard_.assign(cache_count, 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (cache::CacheIndex c : groups[g]) {
      ECGF_EXPECTS(c < cache_count);
      cache_to_shard_[c] = group_to_shard_[g];
    }
  }
}

double min_cross_shard_rtt_ms(const ShardPlan& plan,
                              const net::RttProvider& rtt,
                              std::size_t cache_count,
                              std::size_t exact_limit,
                              const ActiveCachePredicate& active) {
  if (plan.shard_count() <= 1) {
    return std::numeric_limits<double>::infinity();
  }
  const auto is_active = [&](std::size_t c) {
    return active == nullptr || active(static_cast<cache::CacheIndex>(c));
  };
  double best = std::numeric_limits<double>::infinity();
  if (cache_count <= exact_limit) {
    for (std::size_t i = 0; i < cache_count; ++i) {
      if (!is_active(i)) continue;
      const std::size_t si = plan.shard_of_cache(static_cast<std::uint32_t>(i));
      for (std::size_t j = i + 1; j < cache_count; ++j) {
        if (plan.shard_of_cache(static_cast<std::uint32_t>(j)) == si) continue;
        if (!is_active(j)) continue;
        best = std::min(
            best, rtt.rtt_ms_at(static_cast<net::HostId>(i),
                                static_cast<net::HostId>(j), 0.0));
      }
    }
    return best;
  }
  // Deterministic stride sampling: Weyl-style index walks with two coprime
  // multiplicative constants cover the pair space evenly without RNG state.
  constexpr std::size_t kSamples = 1 << 16;
  std::size_t found = 0;
  for (std::size_t k = 0; k < kSamples || found == 0; ++k) {
    if (k >= kSamples * 4) break;  // pathological plans: give up, use floor
    const std::size_t i = (k * 2654435761u) % cache_count;
    const std::size_t j = (k * 40503u + 1) % cache_count;
    if (i == j) continue;
    if (!is_active(i) || !is_active(j)) continue;
    if (plan.shard_of_cache(static_cast<std::uint32_t>(i)) ==
        plan.shard_of_cache(static_cast<std::uint32_t>(j))) {
      continue;
    }
    ++found;
    best = std::min(best,
                    rtt.rtt_ms_at(static_cast<net::HostId>(i),
                                  static_cast<net::HostId>(j), 0.0));
  }
  return best;
}

double CrossShardLookahead::min_rtt_ms(const ShardPlan& plan,
                                       const net::RttProvider& rtt,
                                       std::size_t cache_count,
                                       const ActiveCachePredicate& active) {
  if (plan.shard_count() <= 1) return kInf;
  if (cache_count > kExactLookaheadCaches) {
    return min_cross_shard_rtt_ms(plan, rtt, cache_count,
                                  kExactLookaheadCaches, active);
  }
  if (rtt_ == nullptr) build(rtt, cache_count);
  ECGF_EXPECTS(rtt_ == &rtt && cache_count_ == cache_count);
  for (const Pair& p : pairs_) {
    if (plan.shard_of_cache(p.a) == plan.shard_of_cache(p.b)) continue;
    if (active != nullptr && (!active(p.a) || !active(p.b))) continue;
    return p.rtt_ms;
  }
  ++fallbacks_;
  return min_cross_shard_rtt_ms(plan, rtt, cache_count, kExactLookaheadCaches,
                                active);
}

void CrossShardLookahead::build(const net::RttProvider& rtt,
                                std::size_t cache_count) {
  rtt_ = &rtt;
  cache_count_ = cache_count;
  const std::size_t keep = kKeptPairsPerCache * cache_count;
  // (rtt, a, b) order: among equal RTTs the scan's std::min keeps the
  // first pair in (i, j) order, and so does the walk.
  const auto closer = [](const Pair& x, const Pair& y) {
    if (x.rtt_ms != y.rtt_ms) return x.rtt_ms < y.rtt_ms;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  };
  // A buffer of twice the kept size; each time it fills, nth_element cuts
  // it back to the `keep` closest and the bar drops to the largest one
  // kept. A pair at or beyond the bar can never make the final list (NaN
  // never passes it, just as std::min in the scan never takes it).
  std::vector<Pair> buffer;
  buffer.reserve(2 * keep);
  const auto compact = [&] {
    std::nth_element(buffer.begin(),
                     buffer.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                     buffer.end(), closer);
    buffer.resize(keep);
  };
  double bar = kInf;
  for (std::size_t i = 0; i < cache_count; ++i) {
    for (std::size_t j = i + 1; j < cache_count; ++j) {
      const double r = rtt.rtt_ms_at(static_cast<net::HostId>(i),
                                     static_cast<net::HostId>(j), 0.0);
      if (!(r < bar)) continue;
      buffer.push_back(Pair{r, static_cast<cache::CacheIndex>(i),
                            static_cast<cache::CacheIndex>(j)});
      if (buffer.size() == 2 * keep) {
        compact();
        bar = buffer.back().rtt_ms;
      }
    }
  }
  if (buffer.size() > keep) compact();
  std::sort(buffer.begin(), buffer.end(), closer);
  buffer.shrink_to_fit();
  pairs_ = std::move(buffer);
}

}  // namespace ecgf::shard
