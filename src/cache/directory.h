// Per-group beacon-point directory (Cache Clouds [7]): each cooperative
// group maintains a hash-partitioned directory of which member holds which
// document. A cache resolving a local miss contacts the document's beacon
// point; the beacon knows the holders and forwards the request.
//
// The directory here tracks state only; the *latency* of consulting it is
// charged by the simulation engine (sim::ShardableEngine::on_request in
// sim/engine.h).
#pragma once

#include <cstdint>
#include <vector>

#include "cache/doc_table.h"
#include "cache/document.h"
#include "util/expect.h"

namespace ecgf::cache {

/// Library-wide cache index (0..N-1), identical to net::HostId for caches.
using CacheIndex = std::uint32_t;

class GroupDirectory {
 public:
  /// `members`: the caches of this group. `beacon_count` beacons are drawn
  /// from the members (first `beacon_count` in member order); 0 means every
  /// member is a beacon.
  explicit GroupDirectory(std::vector<CacheIndex> members,
                          std::size_t beacon_count = 0);

  const std::vector<CacheIndex>& members() const { return members_; }
  std::size_t beacon_count() const { return beacons_; }

  /// Regrouping cut-over: replace the member list and re-derive the
  /// beacons exactly as the constructor does, keeping every holder
  /// registration. The caller moves the registrations of caches that left
  /// or joined the group.
  void reassign(std::vector<CacheIndex> members, std::size_t beacon_count = 0);

  /// Sort every holder list ascending — the order a directory filled in
  /// cache-index order has. Lists already in order are left untouched.
  void sort_holders();

  /// The member acting as the beacon point for `doc` (hash partitioning).
  CacheIndex beacon_for(DocId doc) const;

  /// The beacon slot (index into members()) `doc` hashes to — lets callers
  /// implement failover by scanning subsequent slots.
  std::size_t beacon_slot(DocId doc) const;

  /// Deregister `holder` from every document it holds (holder crashed).
  /// Returns the number of registrations dropped.
  std::size_t remove_all_for_holder(CacheIndex holder);

  /// Holder registration, invoked by the protocol on insert/evict/invalidate.
  void add_holder(DocId doc, CacheIndex holder);
  void remove_holder(DocId doc, CacheIndex holder);

  /// Current registered holders of `doc` (possibly empty). Order is
  /// registration order; the protocol picks the cheapest for the requester.
  const std::vector<CacheIndex>& holders(DocId doc) const;

  /// Total number of (doc, holder) registrations — directory footprint.
  std::size_t registration_count() const { return registrations_; }

 private:
  std::vector<CacheIndex> members_;
  std::size_t beacons_ = 0;
  DocTable<std::vector<CacheIndex>> holders_;  ///< no empty lists
  std::vector<CacheIndex> empty_;
  std::size_t registrations_ = 0;
};

}  // namespace ecgf::cache
