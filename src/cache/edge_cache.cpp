#include "cache/edge_cache.h"

namespace ecgf::cache {

EdgeCache::EdgeCache(std::uint64_t capacity_bytes, const Catalog& catalog,
                     std::unique_ptr<ReplacementPolicy> policy)
    : capacity_bytes_(capacity_bytes),
      catalog_(catalog),
      policy_(std::move(policy)) {
  ECGF_EXPECTS(capacity_bytes_ > 0);
  ECGF_EXPECTS(policy_ != nullptr);
}

LookupOutcome EdgeCache::lookup(DocId doc, Version current_version,
                                double now_ms) {
  ++stats_.lookups;
  const auto* r = resident_.find(doc);
  if (r == nullptr) {
    ++stats_.misses;
    record_demand(doc, now_ms);
    return LookupOutcome::kMiss;
  }
  if (r->value.version != current_version) {
    ++stats_.stale_hits;
    record_demand(doc, now_ms);
    return LookupOutcome::kHitStale;
  }
  ++stats_.fresh_hits;
  policy_->on_access(doc, now_ms);
  return LookupOutcome::kHitFresh;
}

LookupOutcome EdgeCache::lookup_ttl(DocId doc, double ttl_ms, double now_ms) {
  ECGF_EXPECTS(ttl_ms > 0.0);
  ++stats_.lookups;
  const auto* r = resident_.find(doc);
  if (r == nullptr) {
    ++stats_.misses;
    record_demand(doc, now_ms);
    return LookupOutcome::kMiss;
  }
  if (now_ms - r->value.stored_ms > ttl_ms) {
    ++stats_.stale_hits;
    record_demand(doc, now_ms);
    return LookupOutcome::kHitStale;
  }
  ++stats_.fresh_hits;
  policy_->on_access(doc, now_ms);
  return LookupOutcome::kHitFresh;
}

bool EdgeCache::has_fresh(DocId doc, Version version) const {
  const auto* r = resident_.find(doc);
  return r != nullptr && r->value.version == version;
}

bool EdgeCache::has_unexpired(DocId doc, double ttl_ms, double now_ms) const {
  ECGF_EXPECTS(ttl_ms > 0.0);
  const auto* r = resident_.find(doc);
  return r != nullptr && now_ms - r->value.stored_ms <= ttl_ms;
}

Version EdgeCache::resident_version(DocId doc) const {
  const auto* r = resident_.find(doc);
  ECGF_EXPECTS(r != nullptr);
  return r->value.version;
}

bool EdgeCache::erase_resident(DocId doc, bool count_as_eviction) {
  if (!resident_.erase(doc)) return false;
  used_bytes_ -= catalog_.info(doc).size_bytes;
  policy_->on_erase(doc);
  if (count_as_eviction) ++stats_.evictions;
  return true;
}

bool EdgeCache::insert(DocId doc, Version version, double now_ms,
                       std::vector<DocId>* evicted, bool force) {
  const std::uint64_t size = catalog_.info(doc).size_bytes;
  if (size > capacity_bytes_) {
    ++stats_.rejections;
    return false;  // can never fit
  }

  // Refresh-in-place for a resident (stale) copy: same footprint.
  if (auto* r = resident_.find(doc)) {
    r->value = Resident{version, now_ms};
    policy_->on_access(doc, now_ms);
    return true;
  }

  // Score-gated eviction: make room only by removing documents the policy
  // values no more than the newcomer.
  const double incoming = policy_->score(doc, now_ms);
  while (used_bytes_ + size > capacity_bytes_) {
    const DocId v = policy_->victim(now_ms);
    if (!force && policy_->score(v, now_ms) > incoming) {
      ++stats_.rejections;
      return false;
    }
    const bool erased = erase_resident(v, /*count_as_eviction=*/true);
    ECGF_ASSERT(erased);
    if (evicted != nullptr) evicted->push_back(v);
  }

  resident_.try_emplace(doc).first->value = Resident{version, now_ms};
  used_bytes_ += size;
  policy_->on_insert(doc, now_ms);
  ++stats_.insertions;
  return true;
}

bool EdgeCache::invalidate(DocId doc) {
  if (!erase_resident(doc, /*count_as_eviction=*/false)) return false;
  ++stats_.invalidations;
  return true;
}

void EdgeCache::touch(DocId doc, double now_ms) {
  if (resident_.contains(doc)) policy_->on_access(doc, now_ms);
}

void EdgeCache::record_demand(DocId doc, double now_ms) {
  policy_->note_reference(doc, now_ms);
}

}  // namespace ecgf::cache
