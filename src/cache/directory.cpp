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
  holders_.for_each([](DocId, std::vector<CacheIndex>& hs) {
    if (!std::is_sorted(hs.begin(), hs.end())) std::sort(hs.begin(), hs.end());
  });
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
  // Erasing moves entries, so emptied lists are dropped after the sweep.
  std::vector<DocId> emptied;
  std::size_t dropped = 0;
  holders_.for_each([&](DocId doc, std::vector<CacheIndex>& hs) {
    const auto pos = std::find(hs.begin(), hs.end(), holder);
    if (pos == hs.end()) return;
    hs.erase(pos);
    ++dropped;
    if (hs.empty()) emptied.push_back(doc);
  });
  for (DocId doc : emptied) holders_.erase(doc);
  registrations_ -= dropped;
  return dropped;
}

void GroupDirectory::add_holder(DocId doc, CacheIndex holder) {
  ECGF_EXPECTS(std::find(members_.begin(), members_.end(), holder) !=
               members_.end());
  auto& hs = holders_.try_emplace(doc).first->value;
  if (std::find(hs.begin(), hs.end(), holder) == hs.end()) {
    hs.push_back(holder);
    ++registrations_;
  }
}

void GroupDirectory::remove_holder(DocId doc, CacheIndex holder) {
  auto* slot = holders_.find(doc);
  if (slot == nullptr) return;
  auto& hs = slot->value;
  const auto pos = std::find(hs.begin(), hs.end(), holder);
  if (pos != hs.end()) {
    hs.erase(pos);
    --registrations_;
    if (hs.empty()) holders_.erase(*slot);
  }
}

const std::vector<CacheIndex>& GroupDirectory::holders(DocId doc) const {
  const auto* slot = holders_.find(doc);
  return slot == nullptr ? empty_ : slot->value;
}

}  // namespace ecgf::cache
