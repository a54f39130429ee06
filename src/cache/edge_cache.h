// A single edge cache: finite-capacity document store with versioned
// (freshness-aware) lookups, pluggable replacement, and score-based
// admission for cooperatively fetched documents.
#pragma once

#include <memory>
#include <vector>

#include "cache/catalog.h"
#include "cache/doc_table.h"
#include "cache/document.h"
#include "cache/replacement.h"

namespace ecgf::cache {

enum class LookupOutcome {
  kHitFresh,  ///< resident and current — serve locally
  kHitStale,  ///< resident but outdated — must refetch (counts as a miss)
  kMiss       ///< not resident
};

/// Local statistics (the simulator aggregates network-wide views).
struct EdgeCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t fresh_hits = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t rejections = 0;   ///< admission declined
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
};

class EdgeCache {
 public:
  /// `capacity_bytes` > 0; the policy is owned by the cache.
  EdgeCache(std::uint64_t capacity_bytes, const Catalog& catalog,
            std::unique_ptr<ReplacementPolicy> policy);

  /// Look up `doc` expecting `current_version` (push-invalidation
  /// consistency: freshness = version match). Fresh hits refresh the
  /// policy's recency/frequency state; stale hits and misses record demand.
  LookupOutcome lookup(DocId doc, Version current_version, double now_ms);

  /// Look up `doc` under TTL consistency: a resident copy younger than
  /// `ttl_ms` is served regardless of its version (it may in fact be
  /// stale — that is the TTL trade-off); an older copy counts as expired
  /// (kHitStale) and must be refetched.
  LookupOutcome lookup_ttl(DocId doc, double ttl_ms, double now_ms);

  /// True when `doc` is resident at exactly `version` — the group
  /// directory's notion of a usable holder under push invalidation.
  bool has_fresh(DocId doc, Version version) const;

  /// True when `doc` is resident and younger than `ttl_ms` — the usable-
  /// holder notion under TTL consistency.
  bool has_unexpired(DocId doc, double ttl_ms, double now_ms) const;

  /// Version of the resident copy; throws when not resident.
  Version resident_version(DocId doc) const;

  /// Try to store (doc, version). Evicts low-score documents while space is
  /// needed, but refuses the insert (returns false) rather than evicting a
  /// resident document the policy scores higher than the newcomer — unless
  /// `force` is set, in which case victims are evicted unconditionally
  /// (documents larger than the whole cache are still refused).
  /// A resident stale copy of the same doc is refreshed in place.
  /// Evicted doc ids are appended to `evicted` when non-null (the caller
  /// deregisters them from the group directory).
  bool insert(DocId doc, Version version, double now_ms,
              std::vector<DocId>* evicted = nullptr, bool force = false);

  /// Record a serve of a resident document without a full lookup — used
  /// when this cache ships a document to a group peer.
  void touch(DocId doc, double now_ms);

  /// Drop the resident copy after an origin update. Returns true when a
  /// copy was actually dropped (the caller then updates the directory).
  bool invalidate(DocId doc);

  /// Record demand for a non-resident document (miss path) so utility-based
  /// admission sees real reference frequency.
  void record_demand(DocId doc, double now_ms);

  bool contains(DocId doc) const { return resident_.contains(doc); }

  /// Snapshot of resident document ids (unspecified order) — used to
  /// rebuild content summaries.
  std::vector<DocId> resident_docs() const {
    std::vector<DocId> out;
    out.reserve(resident_.size());
    resident_.for_each([&](DocId doc, const Resident&) { out.push_back(doc); });
    return out;
  }
  std::size_t resident_count() const { return resident_.size(); }
  std::uint64_t used_bytes() const { return used_bytes_; }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  const EdgeCacheStats& stats() const { return stats_; }
  const ReplacementPolicy& policy() const { return *policy_; }

 private:
  struct Resident {
    Version version = 0;
    double stored_ms = 0.0;
  };

  /// Drop `doc` if resident (one probe); false when it was not.
  bool erase_resident(DocId doc, bool count_as_eviction);

  std::uint64_t capacity_bytes_;
  std::uint64_t used_bytes_ = 0;
  const Catalog& catalog_;
  std::unique_ptr<ReplacementPolicy> policy_;
  DocTable<Resident> resident_;
  EdgeCacheStats stats_;
};

}  // namespace ecgf::cache
