// Replacement policies for the edge caches.
//
// * LruPolicy — classic least-recently-used baseline.
// * UtilityPolicy — the Cache Clouds utility-based scheme the paper's
//   simulator uses ("the caches implement utility-based document placement
//   and replacement schemes [7]"): utility(d) = refFreq(d) / size(d) ×
//   1/(1 + updatePenalty·updateRate(d)). Reference frequency is an
//   exponentially decayed count, so stale popularity ages out.
#pragma once

#include <list>
#include <memory>
#include <string_view>

#include "cache/catalog.h"
#include "cache/doc_table.h"
#include "cache/document.h"
#include "util/expect.h"

namespace ecgf::cache {

/// Policy interface: tracks resident documents and nominates eviction
/// victims. The owning cache guarantees track/untrack pairing.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  virtual std::string_view name() const = 0;

  /// Document became resident at simulation time `now_ms`.
  virtual void on_insert(DocId doc, double now_ms) = 0;
  /// Resident document was served at `now_ms`.
  virtual void on_access(DocId doc, double now_ms) = 0;
  /// Document is no longer resident (evicted or invalidated away).
  virtual void on_erase(DocId doc) = 0;
  /// A request at `now_ms` found no fresh copy (a miss or a stale hit).
  virtual void note_reference(DocId doc, double now_ms) = 0;

  /// Choose the eviction victim among resident documents. Requires at
  /// least one resident document.
  virtual DocId victim(double now_ms) const = 0;

  /// Admission/retention score of a document (resident or not): higher is
  /// more valuable. Used by cooperative placement to decide whether a
  /// remotely fetched document is worth storing locally.
  virtual double score(DocId doc, double now_ms) const = 0;
};

class LruPolicy final : public ReplacementPolicy {
 public:
  std::string_view name() const override { return "lru"; }
  void on_insert(DocId doc, double now_ms) override;
  void on_access(DocId doc, double now_ms) override;
  void on_erase(DocId doc) override;
  /// Recency only: demand for a non-resident document leaves no trace.
  void note_reference(DocId, double) override {}
  DocId victim(double now_ms) const override;
  double score(DocId doc, double now_ms) const override;

 private:
  // Most-recent at front.
  std::list<DocId> order_;
  DocTable<std::list<DocId>::iterator> where_;
  double last_now_ms_ = 0.0;
};

struct UtilityPolicyParams {
  double decay_half_life_ms = 120'000.0;  ///< popularity ageing half-life
  double update_penalty = 20.0;           ///< weight of update_rate in utility
};

class UtilityPolicy final : public ReplacementPolicy {
 public:
  UtilityPolicy(const Catalog& catalog, UtilityPolicyParams params = {});

  std::string_view name() const override { return "utility"; }
  void on_insert(DocId doc, double now_ms) override;
  void on_access(DocId doc, double now_ms) override;
  void on_erase(DocId doc) override;
  /// Record interest in a document that is not (yet) resident — misses also
  /// shape reference frequency, so admission decisions see real demand.
  void note_reference(DocId doc, double now_ms) override;
  DocId victim(double now_ms) const override;
  double score(DocId doc, double now_ms) const override;

 private:
  struct Stats {
    double decayed_count = 0.0;
    double last_update_ms = 0.0;
    bool resident = false;
  };

  double decayed_frequency(const Stats& s, double now_ms) const;
  /// score() of `doc` at reference frequency `freq`.
  double utility(DocId doc, double freq) const;
  void bump(Stats& s, double now_ms);

  const Catalog& catalog_;
  UtilityPolicyParams params_;
  DocTable<Stats> stats_;
};

/// Factory helper used by the simulator configuration.
enum class PolicyKind { kLru, kUtility };

std::unique_ptr<ReplacementPolicy> make_policy(PolicyKind kind,
                                               const Catalog& catalog,
                                               UtilityPolicyParams params = {});

}  // namespace ecgf::cache
