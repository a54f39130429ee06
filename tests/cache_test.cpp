// Tests for the cache substrate: catalog, replacement policies, edge cache,
// origin server, group directory, and the DocTable they are built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <unordered_map>

#include "cache/catalog.h"
#include "cache/directory.h"
#include "cache/doc_table.h"
#include "cache/edge_cache.h"
#include "cache/origin.h"
#include "cache/replacement.h"
#include "util/expect.h"

namespace ecgf::cache {
namespace {

/// Catalog of `n` documents, each exactly `size` bytes, no updates.
Catalog uniform_catalog(std::size_t n, std::uint32_t size,
                        double update_rate = 0.0) {
  std::vector<DocumentInfo> docs(n);
  for (auto& d : docs) {
    d.size_bytes = size;
    d.generation_cost_ms = 10.0;
    d.update_rate = update_rate;
  }
  return Catalog(std::move(docs));
}

TEST(Catalog, GenerateHonoursBounds) {
  util::Rng rng(1);
  CatalogParams params;
  params.document_count = 500;
  const auto catalog = Catalog::generate(params, rng);
  EXPECT_EQ(catalog.size(), 500u);
  for (DocId d = 0; d < 500; ++d) {
    const auto& info = catalog.info(d);
    EXPECT_GE(info.size_bytes, params.min_size_bytes);
    EXPECT_LE(info.size_bytes, params.max_size_bytes);
    EXPECT_GE(info.generation_cost_ms, params.min_generation_ms);
    EXPECT_LE(info.generation_cost_ms, params.max_generation_ms);
    EXPECT_TRUE(info.update_rate == params.hot_update_rate ||
                info.update_rate == params.cold_update_rate);
  }
  EXPECT_GT(catalog.mean_size_bytes(), 0.0);
}

TEST(Catalog, HotFractionApproximatelyRespected) {
  util::Rng rng(2);
  CatalogParams params;
  params.document_count = 4000;
  params.hot_update_fraction = 0.25;
  const auto catalog = Catalog::generate(params, rng);
  int hot = 0;
  for (DocId d = 0; d < 4000; ++d) {
    if (catalog.info(d).update_rate == params.hot_update_rate) ++hot;
  }
  EXPECT_NEAR(hot / 4000.0, 0.25, 0.03);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruPolicy lru;
  lru.on_insert(1, 0.0);
  lru.on_insert(2, 1.0);
  lru.on_insert(3, 2.0);
  EXPECT_EQ(lru.victim(3.0), 1u);
  lru.on_access(1, 3.0);  // 2 becomes the oldest
  EXPECT_EQ(lru.victim(4.0), 2u);
  lru.on_erase(2);
  EXPECT_EQ(lru.victim(5.0), 3u);
}

TEST(Lru, ScoreRanksByRecency) {
  LruPolicy lru;
  lru.on_insert(1, 0.0);
  lru.on_insert(2, 1.0);
  EXPECT_GT(lru.score(2, 2.0), lru.score(1, 2.0));
  EXPECT_DOUBLE_EQ(lru.score(99, 2.0), 1.0);  // non-resident: admit freely
}

TEST(Lru, ContractsOnMisuse) {
  LruPolicy lru;
  EXPECT_THROW(lru.victim(0.0), util::ContractViolation);
  EXPECT_THROW(lru.on_access(5, 0.0), util::ContractViolation);
  lru.on_insert(5, 0.0);
  EXPECT_THROW(lru.on_insert(5, 1.0), util::ContractViolation);
}

TEST(Lru, NoteReferenceIsANoOp) {
  LruPolicy lru;
  lru.on_insert(1, 0.0);
  ReplacementPolicy& policy = lru;
  policy.note_reference(3, 1.0);
  EXPECT_DOUBLE_EQ(lru.score(3, 1.0), 1.0);  // still unknown
  lru.on_insert(3, 2.0);                     // no stale entry in the way
  EXPECT_EQ(lru.victim(2.0), 1u);
}

TEST(Utility, PrefersFrequentDocuments) {
  const auto catalog = uniform_catalog(10, 1024);
  UtilityPolicy policy(catalog);
  policy.on_insert(0, 0.0);
  policy.on_insert(1, 0.0);
  for (int i = 0; i < 5; ++i) policy.on_access(0, 10.0 * i);
  // Doc 1 was referenced once, doc 0 six times: victim must be 1.
  EXPECT_EQ(policy.victim(100.0), 1u);
  EXPECT_GT(policy.score(0, 100.0), policy.score(1, 100.0));
}

TEST(Utility, PenalisesLargeDocuments) {
  std::vector<DocumentInfo> docs(2);
  docs[0] = {1024, 10.0, 0.0};        // 1 KB
  docs[1] = {100 * 1024, 10.0, 0.0};  // 100 KB
  const Catalog catalog(std::move(docs));
  UtilityPolicy policy(catalog);
  policy.on_insert(0, 0.0);
  policy.on_insert(1, 0.0);
  // Same frequency: the big document is the victim.
  EXPECT_EQ(policy.victim(1.0), 1u);
}

TEST(Utility, PenalisesFrequentlyUpdatedDocuments) {
  std::vector<DocumentInfo> docs(2);
  docs[0] = {1024, 10.0, 0.0};   // static
  docs[1] = {1024, 10.0, 1.0};   // updates once per second
  const Catalog catalog(std::move(docs));
  UtilityPolicy policy(catalog);
  policy.on_insert(0, 0.0);
  policy.on_insert(1, 0.0);
  EXPECT_EQ(policy.victim(1.0), 1u);
}

TEST(Utility, FrequencyDecaysOverTime) {
  const auto catalog = uniform_catalog(4, 1024);
  UtilityPolicyParams params;
  params.decay_half_life_ms = 1000.0;
  UtilityPolicy policy(catalog, params);
  policy.on_insert(0, 0.0);
  for (int i = 0; i < 8; ++i) policy.on_access(0, 0.0);
  const double fresh = policy.score(0, 0.0);
  const double later = policy.score(0, 10'000.0);  // 10 half-lives later
  EXPECT_LT(later, fresh / 100.0);
}

TEST(Utility, NoteReferenceWarmsNonResidentDocs) {
  const auto catalog = uniform_catalog(4, 1024);
  UtilityPolicy policy(catalog);
  EXPECT_DOUBLE_EQ(policy.score(2, 0.0), 0.0);
  policy.note_reference(2, 0.0);
  policy.note_reference(2, 1.0);
  EXPECT_GT(policy.score(2, 1.0), 0.0);
}

TEST(Utility, VictimTieBreaksOnTheLowestIdInAnyInsertionOrder) {
  const auto catalog = uniform_catalog(64, 1024);
  UtilityPolicy forward(catalog);
  UtilityPolicy backward(catalog);
  // Every document is referenced once at t = 0, so every score ties. Doc 2
  // ties too but is not resident.
  forward.note_reference(2, 0.0);
  backward.note_reference(2, 0.0);
  for (DocId d = 5; d < 64; ++d) forward.on_insert(d, 0.0);
  for (DocId d = 63; d >= 5; --d) backward.on_insert(d, 0.0);
  EXPECT_EQ(forward.score(5, 10.0), forward.score(63, 10.0));
  EXPECT_EQ(forward.victim(10.0), 5u);
  EXPECT_EQ(backward.victim(10.0), 5u);
}

std::unique_ptr<EdgeCache> small_cache(const Catalog& catalog,
                                       std::uint64_t capacity,
                                       PolicyKind kind = PolicyKind::kLru) {
  return std::make_unique<EdgeCache>(capacity, catalog,
                                     make_policy(kind, catalog));
}

TEST(EdgeCache, HitMissAndStale) {
  const auto catalog = uniform_catalog(10, 1000);
  auto cache = small_cache(catalog, 10'000);
  EXPECT_EQ(cache->lookup(3, 1, 0.0), LookupOutcome::kMiss);
  EXPECT_TRUE(cache->insert(3, 1, 0.0));
  EXPECT_EQ(cache->lookup(3, 1, 1.0), LookupOutcome::kHitFresh);
  EXPECT_EQ(cache->lookup(3, 2, 2.0), LookupOutcome::kHitStale);
  EXPECT_EQ(cache->stats().fresh_hits, 1u);
  EXPECT_EQ(cache->stats().stale_hits, 1u);
  EXPECT_EQ(cache->stats().misses, 1u);
}

TEST(EdgeCache, CapacityEnforcedWithEvictions) {
  const auto catalog = uniform_catalog(10, 1000);
  auto cache = small_cache(catalog, 3000);  // room for 3 docs
  std::vector<DocId> evicted;
  EXPECT_TRUE(cache->insert(0, 1, 0.0, &evicted));
  EXPECT_TRUE(cache->insert(1, 1, 1.0, &evicted));
  EXPECT_TRUE(cache->insert(2, 1, 2.0, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_TRUE(cache->insert(3, 1, 3.0, &evicted));  // LRU evicts doc 0
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 0u);
  EXPECT_FALSE(cache->contains(0));
  EXPECT_EQ(cache->resident_count(), 3u);
  EXPECT_LE(cache->used_bytes(), cache->capacity_bytes());
}

TEST(EdgeCache, OversizedDocumentRejected) {
  const auto catalog = uniform_catalog(2, 5000);
  auto cache = small_cache(catalog, 3000);
  EXPECT_FALSE(cache->insert(0, 1, 0.0));
  EXPECT_EQ(cache->stats().rejections, 1u);
}

TEST(EdgeCache, StaleRefreshInPlace) {
  const auto catalog = uniform_catalog(4, 1000);
  auto cache = small_cache(catalog, 4000);
  EXPECT_TRUE(cache->insert(1, 1, 0.0));
  EXPECT_TRUE(cache->insert(1, 2, 1.0));  // refresh, not duplicate
  EXPECT_EQ(cache->resident_count(), 1u);
  EXPECT_TRUE(cache->has_fresh(1, 2));
  EXPECT_FALSE(cache->has_fresh(1, 1));
}

TEST(EdgeCache, InvalidateDropsCopy) {
  const auto catalog = uniform_catalog(4, 1000);
  auto cache = small_cache(catalog, 4000);
  EXPECT_TRUE(cache->insert(1, 1, 0.0));
  EXPECT_TRUE(cache->invalidate(1));
  EXPECT_FALSE(cache->contains(1));
  EXPECT_FALSE(cache->invalidate(1));  // second call: nothing to drop
  EXPECT_EQ(cache->stats().invalidations, 1u);
  EXPECT_EQ(cache->used_bytes(), 0u);
}

TEST(EdgeCache, UtilityAdmissionRejectsColdDocWhenFull) {
  const auto catalog = uniform_catalog(10, 1000);
  auto cache = small_cache(catalog, 2000, PolicyKind::kUtility);
  // Make docs 0 and 1 hot.
  for (int i = 0; i < 5; ++i) {
    cache->record_demand(0, static_cast<double>(i));
    cache->record_demand(1, static_cast<double>(i));
  }
  EXPECT_TRUE(cache->insert(0, 1, 5.0));
  EXPECT_TRUE(cache->insert(1, 1, 5.0));
  // Doc 9 has never been referenced: admission must refuse to evict a hot
  // resident for it.
  EXPECT_FALSE(cache->insert(9, 1, 6.0));
  EXPECT_TRUE(cache->contains(0));
  EXPECT_TRUE(cache->contains(1));
}

TEST(EdgeCache, UtilityAdmissionAcceptsHotterDoc) {
  const auto catalog = uniform_catalog(10, 1000);
  auto cache = small_cache(catalog, 1000, PolicyKind::kUtility);
  cache->record_demand(0, 0.0);
  EXPECT_TRUE(cache->insert(0, 1, 0.0));
  // Doc 5 becomes much hotter than resident doc 0.
  for (int i = 0; i < 10; ++i) cache->record_demand(5, 1.0);
  std::vector<DocId> evicted;
  EXPECT_TRUE(cache->insert(5, 1, 2.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 0u);
}

TEST(Origin, VersionsAdvanceOnUpdate) {
  const auto catalog = uniform_catalog(3, 1000);
  OriginServer origin(catalog);
  EXPECT_EQ(origin.version(0), 1u);
  EXPECT_EQ(origin.apply_update(0), 2u);
  EXPECT_EQ(origin.version(0), 2u);
  EXPECT_EQ(origin.version(1), 1u);  // others untouched
  EXPECT_EQ(origin.stats().updates, 1u);
}

TEST(Origin, ServeCostsGenerationTime) {
  std::vector<DocumentInfo> docs(1);
  docs[0] = {1000, 23.5, 0.0};
  const Catalog catalog(std::move(docs));
  OriginServer origin(catalog);
  EXPECT_DOUBLE_EQ(origin.serve_ms(0), 23.5);
  EXPECT_EQ(origin.stats().fetches, 1u);
}

TEST(Directory, BeaconAssignmentStableAndWithinMembers) {
  GroupDirectory dir({5, 9, 12}, 2);
  EXPECT_EQ(dir.beacon_count(), 2u);
  std::set<CacheIndex> beacons;
  for (DocId d = 0; d < 100; ++d) {
    const CacheIndex b = dir.beacon_for(d);
    EXPECT_EQ(b, dir.beacon_for(d));  // stable
    EXPECT_TRUE(b == 5 || b == 9);    // only the first two members
    beacons.insert(b);
  }
  EXPECT_EQ(beacons.size(), 2u);  // both beacons used
}

TEST(Directory, ZeroBeaconCountMeansAllMembers) {
  GroupDirectory dir({1, 2, 3}, 0);
  EXPECT_EQ(dir.beacon_count(), 3u);
}

TEST(Directory, HolderRegistration) {
  GroupDirectory dir({1, 2, 3});
  EXPECT_TRUE(dir.holders(7).empty());
  dir.add_holder(7, 2);
  dir.add_holder(7, 3);
  dir.add_holder(7, 2);  // duplicate ignored
  EXPECT_EQ(dir.holders(7).size(), 2u);
  EXPECT_EQ(dir.registration_count(), 2u);
  dir.remove_holder(7, 2);
  ASSERT_EQ(dir.holders(7).size(), 1u);
  EXPECT_EQ(dir.holders(7)[0], 3u);
  dir.remove_holder(7, 3);
  EXPECT_TRUE(dir.holders(7).empty());
  EXPECT_EQ(dir.registration_count(), 0u);
  dir.remove_holder(7, 3);  // idempotent
}

TEST(Directory, RejectsForeignHolder) {
  GroupDirectory dir({1, 2});
  EXPECT_THROW(dir.add_holder(0, 99), util::ContractViolation);
}

// DocTable's hash at 8 slots, mirrored: the top three bits of doc · 2⁶⁴/φ.
std::vector<DocId> ids_homed_at(std::size_t slot, std::size_t count) {
  std::vector<DocId> out;
  for (DocId d = 0; out.size() < count; ++d) {
    if (((std::uint64_t{d} * 0x9E3779B97F4A7C15ULL) >> 61) == slot) {
      out.push_back(d);
    }
  }
  return out;
}

/// The value stored for `doc`; fails the test when it is missing.
int value_of(const DocTable<int>& table, DocId doc) {
  const auto* slot = table.find(doc);
  EXPECT_NE(slot, nullptr) << "doc " << doc;
  return slot == nullptr ? -1 : slot->value;
}

/// Keys in slot order (for_each walks the slot array).
std::vector<DocId> slot_order(const DocTable<int>& table) {
  std::vector<DocId> out;
  table.for_each([&](DocId d, int) { out.push_back(d); });
  return out;
}

TEST(DocTable, EraseShiftsAProbeRunBackAcrossTheEnd) {
  const std::vector<DocId> last = ids_homed_at(7, 3);
  const DocId d = ids_homed_at(0, 1)[0];
  DocTable<int> table;
  for (int i = 0; i < 3; ++i) table.try_emplace(last[i]).first->value = i;
  table.try_emplace(d).first->value = 3;
  ASSERT_EQ(table.capacity(), 8u);
  // last[0] sits in slot 7; last[1], last[2] wrapped to slots 0 and 1, so
  // d (home 0) probed on to slot 2.
  EXPECT_EQ(slot_order(table),
            (std::vector<DocId>{last[1], last[2], d, last[0]}));

  // Erasing slot 7 pulls the whole run back one slot, across the end.
  EXPECT_TRUE(table.erase(last[0]));
  EXPECT_EQ(slot_order(table), (std::vector<DocId>{last[2], d, last[1]}));
  EXPECT_EQ(value_of(table, last[1]), 1);
  EXPECT_EQ(value_of(table, last[2]), 2);
  EXPECT_EQ(value_of(table, d), 3);
  EXPECT_EQ(table.find(last[0]), nullptr);

  // A missing key erases nothing.
  EXPECT_FALSE(table.erase(last[0]));
  EXPECT_EQ(table.size(), 3u);

  // d sits at its home slot once slot 0 empties: it must not move.
  EXPECT_TRUE(table.erase(last[1]));
  EXPECT_TRUE(table.erase(last[2]));
  EXPECT_EQ(slot_order(table), (std::vector<DocId>{d}));
  EXPECT_EQ(value_of(table, d), 3);
}

TEST(DocTable, RejectsTheReservedId) {
  constexpr DocId reserved = DocTable<int>::kEmpty;
  DocTable<int> table;
  EXPECT_EQ(table.find(reserved), nullptr);
  EXPECT_THROW(table.try_emplace(reserved), util::ContractViolation);
  table.try_emplace(1);
  EXPECT_THROW(table.try_emplace(reserved), util::ContractViolation);
  EXPECT_EQ(table.find(reserved), nullptr);  // empty slots never match
  EXPECT_FALSE(table.erase(reserved));
  EXPECT_EQ(table.size(), 1u);
}

// Seeded random operations on a DocTable and a std::unordered_map side by
// side: every result and, every 50 operations, the whole contents must
// agree. A 12-key range keeps a 16-slot table full of wrapped runs; a
// 600-key range grows it through several doublings. An insert-heavy half
// is followed by an erase-heavy one, and a few ids sit just below the
// reserved one.
TEST(DocTable, MatchesUnorderedMapUnderRandomOperations) {
  for (const std::size_t range : {12u, 600u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("range " + std::to_string(range) + " seed " +
                   std::to_string(seed));
      util::Rng rng(seed);
      DocTable<std::uint64_t> table;
      std::unordered_map<DocId, std::uint64_t> model;
      std::size_t peak_capacity = 0;
      constexpr std::uint64_t kOps = 20'000;
      for (std::uint64_t op = 0; op < kOps; ++op) {
        const DocId doc =
            rng.bernoulli(0.05)
                ? DocTable<std::uint64_t>::kEmpty - 1 -
                      static_cast<DocId>(rng.index(4))
                : static_cast<DocId>(rng.index(range));
        const double insert_share = op < kOps / 2 ? 0.7 : 0.3;
        if (rng.bernoulli(insert_share)) {
          const auto [slot, inserted] = table.try_emplace(doc);
          ASSERT_EQ(inserted, !model.contains(doc));
          if (!inserted) {
            ASSERT_EQ(slot->value, model[doc]);
          }
          slot->value = op;
          model[doc] = op;
        } else if (rng.bernoulli(0.5)) {
          ASSERT_EQ(table.erase(doc), model.erase(doc) == 1);
        } else {
          auto* slot = table.find(doc);
          ASSERT_EQ(slot != nullptr, model.contains(doc));
          if (slot != nullptr) {
            ASSERT_EQ(slot->value, model[doc]);
            table.erase(*slot);
            model.erase(doc);
          }
        }
        ASSERT_EQ(table.size(), model.size());
        const std::size_t capacity = table.capacity();
        ASSERT_TRUE(capacity == 0 || std::has_single_bit(capacity));
        ASSERT_LE(table.size() * 8, capacity * 7);
        peak_capacity = std::max(peak_capacity, capacity);
        if (op % 50 == 0) {
          std::vector<std::pair<DocId, std::uint64_t>> got;
          table.for_each(
              [&](DocId d, std::uint64_t v) { got.emplace_back(d, v); });
          std::vector<std::pair<DocId, std::uint64_t>> want(model.begin(),
                                                            model.end());
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
          ASSERT_EQ(got, want);
          for (const auto& [d, v] : want) {
            const auto* slot = table.find(d);
            ASSERT_NE(slot, nullptr) << "doc " << d;
            ASSERT_EQ(slot->value, v);
          }
        }
      }
      EXPECT_GE(peak_capacity, range == 12 ? 16u : 512u);
    }
  }
}

}  // namespace
}  // namespace ecgf::cache
