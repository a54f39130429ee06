#include "cache/directory.h"

#include <algorithm>

namespace ecgf::cache {

GroupDirectory::GroupDirectory(std::vector<CacheIndex> members,
                               std::size_t beacon_count) {
  reassign(std::move(members), beacon_count);
}

void GroupDirectory::reassign(std::vector<CacheIndex> members,
                              std::size_t beacon_count) {
  ECGF_EXPECTS(!members.empty());
  members_ = std::move(members);
  beacons_ = beacon_count == 0 ? members_.size()
                               : std::min(beacon_count, members_.size());
}

void GroupDirectory::sort_holders() {
  for (auto& [doc, hs] : holders_) {
    if (!std::is_sorted(hs.begin(), hs.end())) std::sort(hs.begin(), hs.end());
  }
}

CacheIndex GroupDirectory::beacon_for(DocId doc) const {
  return members_[beacon_slot(doc)];
}

std::size_t GroupDirectory::beacon_slot(DocId doc) const {
  // Knuth multiplicative hash keeps beacon load even across doc ids.
  const std::uint64_t h = static_cast<std::uint64_t>(doc) * 2654435761ULL;
  return static_cast<std::size_t>(h % beacons_);
}

std::size_t GroupDirectory::remove_all_for_holder(CacheIndex holder) {
  std::size_t dropped = 0;
  for (auto it = holders_.begin(); it != holders_.end();) {
    auto& hs = it->second;
    const auto pos = std::find(hs.begin(), hs.end(), holder);
    if (pos != hs.end()) {
      hs.erase(pos);
      --registrations_;
      ++dropped;
    }
    it = hs.empty() ? holders_.erase(it) : std::next(it);
  }
  return dropped;
}

void GroupDirectory::add_holder(DocId doc, CacheIndex holder) {
  ECGF_EXPECTS(std::find(members_.begin(), members_.end(), holder) !=
               members_.end());
  auto& hs = holders_[doc];
  if (std::find(hs.begin(), hs.end(), holder) == hs.end()) {
    hs.push_back(holder);
    ++registrations_;
  }
}

void GroupDirectory::remove_holder(DocId doc, CacheIndex holder) {
  const auto it = holders_.find(doc);
  if (it == holders_.end()) return;
  auto& hs = it->second;
  const auto pos = std::find(hs.begin(), hs.end(), holder);
  if (pos != hs.end()) {
    hs.erase(pos);
    --registrations_;
    if (hs.empty()) holders_.erase(it);
  }
}

const std::vector<CacheIndex>& GroupDirectory::holders(DocId doc) const {
  const auto it = holders_.find(doc);
  return it == holders_.end() ? empty_ : it->second;
}

}  // namespace ecgf::cache
