#include "cache/replacement.h"

#include <cmath>
#include <limits>

namespace ecgf::cache {

// ---------------------------------------------------------------- LRU ----

void LruPolicy::on_insert(DocId doc, double now_ms) {
  const auto [slot, inserted] = where_.try_emplace(doc);
  ECGF_EXPECTS(inserted);
  last_now_ms_ = now_ms;
  order_.push_front(doc);
  slot->value = order_.begin();
}

void LruPolicy::on_access(DocId doc, double now_ms) {
  const auto* slot = where_.find(doc);
  ECGF_EXPECTS(slot != nullptr);
  last_now_ms_ = now_ms;
  order_.splice(order_.begin(), order_, slot->value);
}

void LruPolicy::on_erase(DocId doc) {
  auto* slot = where_.find(doc);
  ECGF_EXPECTS(slot != nullptr);
  order_.erase(slot->value);
  where_.erase(*slot);
}

DocId LruPolicy::victim(double /*now_ms*/) const {
  ECGF_EXPECTS(!order_.empty());
  return order_.back();
}

double LruPolicy::score(DocId doc, double /*now_ms*/) const {
  // Recency rank as a score: the most recently used scores 1, the LRU tail
  // approaches 0. A non-resident document scores 1.0 — LRU always admits,
  // and once inserted it would be the most recent. Linear scan is fine for
  // the list sizes caches hold; LRU is only the baseline policy.
  const auto* slot = where_.find(doc);
  if (slot == nullptr) return 1.0;
  std::size_t rank = 0;
  for (auto pos = order_.begin(); pos != slot->value; ++pos) ++rank;
  return 1.0 - static_cast<double>(rank) / static_cast<double>(order_.size());
}

// ------------------------------------------------------------ Utility ----

UtilityPolicy::UtilityPolicy(const Catalog& catalog, UtilityPolicyParams params)
    : catalog_(catalog), params_(params) {
  ECGF_EXPECTS(params_.decay_half_life_ms > 0.0);
  ECGF_EXPECTS(params_.update_penalty >= 0.0);
}

double UtilityPolicy::decayed_frequency(const Stats& s, double now_ms) const {
  const double age = std::max(0.0, now_ms - s.last_update_ms);
  return s.decayed_count * std::exp2(-age / params_.decay_half_life_ms);
}

void UtilityPolicy::bump(Stats& s, double now_ms) {
  s.decayed_count = decayed_frequency(s, now_ms) + 1.0;
  s.last_update_ms = now_ms;
}

void UtilityPolicy::on_insert(DocId doc, double now_ms) {
  Stats& s = stats_.try_emplace(doc).first->value;
  ECGF_EXPECTS(!s.resident);
  s.resident = true;
  bump(s, now_ms);
}

void UtilityPolicy::on_access(DocId doc, double now_ms) {
  auto* slot = stats_.find(doc);
  ECGF_EXPECTS(slot != nullptr && slot->value.resident);
  bump(slot->value, now_ms);
}

void UtilityPolicy::on_erase(DocId doc) {
  auto* slot = stats_.find(doc);
  ECGF_EXPECTS(slot != nullptr && slot->value.resident);
  // Keep the frequency history: a re-inserted document should not start
  // cold, and note_reference data stays useful for admission decisions.
  slot->value.resident = false;
}

void UtilityPolicy::note_reference(DocId doc, double now_ms) {
  bump(stats_.try_emplace(doc).first->value, now_ms);
}

double UtilityPolicy::score(DocId doc, double now_ms) const {
  const auto* slot = stats_.find(doc);
  return utility(doc, slot == nullptr
                          ? 0.0
                          : decayed_frequency(slot->value, now_ms));
}

double UtilityPolicy::utility(DocId doc, double freq) const {
  const DocumentInfo& info = catalog_.info(doc);
  const double size_kb = static_cast<double>(info.size_bytes) / 1024.0;
  return freq / std::max(size_kb, 1e-3) /
         (1.0 + params_.update_penalty * info.update_rate);
}

DocId UtilityPolicy::victim(double now_ms) const {
  double best = std::numeric_limits<double>::infinity();
  DocId victim_doc = 0;
  bool found = false;
  // The least (score, doc id) pair, whatever the table's order.
  stats_.for_each([&](DocId doc, const Stats& s) {
    if (!s.resident) return;
    const double u = utility(doc, decayed_frequency(s, now_ms));
    if (!found || u < best || (u == best && doc < victim_doc)) {
      best = u;
      victim_doc = doc;
      found = true;
    }
  });
  ECGF_EXPECTS(found);
  return victim_doc;
}

std::unique_ptr<ReplacementPolicy> make_policy(PolicyKind kind,
                                               const Catalog& catalog,
                                               UtilityPolicyParams params) {
  switch (kind) {
    case PolicyKind::kLru:
      return std::make_unique<LruPolicy>();
    case PolicyKind::kUtility:
      return std::make_unique<UtilityPolicy>(catalog, params);
  }
  throw util::ContractViolation("unknown PolicyKind");
}

}  // namespace ecgf::cache
