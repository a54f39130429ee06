// Flat open-addressing hash table keyed by DocId — the one doc-keyed
// container of the cache layer (resident sets, policy statistics, LRU
// positions, directory holder lists).
//
// Every entry lives in one contiguous slot array: a lookup is a short
// linear probe over neighbouring slots instead of a bucket walk through
// heap nodes. Capacity is a power of two (8 on the first insert) and
// doubles when an insert would push the load past 7/8; the home slot is a
// multiplicative (Fibonacci) hash of the id. Erase shifts the rest of the
// probe run back into the hole (backward-shift deletion), so there are no
// tombstones and lookups never slow down with churn.
//
// The largest DocId marks an empty slot and is never a key. Iteration
// order is unspecified; callers that need an order sort or pick by key.
// Any insert or erase may move entries, so a Slot pointer is valid only
// until the next mutation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "cache/document.h"
#include "util/expect.h"

namespace ecgf::cache {

template <typename V>
class DocTable {
 public:
  /// Reserved id of an empty slot.
  static constexpr DocId kEmpty = std::numeric_limits<DocId>::max();

  struct Slot {
    DocId doc = kEmpty;
    V value{};
  };

  std::size_t size() const { return size_; }
  /// Slot count (a power of two, or 0 before the first insert).
  std::size_t capacity() const { return slots_.size(); }

  /// The entry for `doc`, or nullptr.
  Slot* find(DocId doc) {
    return const_cast<Slot*>(std::as_const(*this).find(doc));
  }
  const Slot* find(DocId doc) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(doc);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      // The empty test comes first, so the reserved id is never found.
      if (s.doc == kEmpty) return nullptr;
      if (s.doc == doc) return &s;
    }
  }
  bool contains(DocId doc) const { return find(doc) != nullptr; }

  /// The entry for `doc`, inserting a value-initialised one when absent;
  /// `second` is true when it was inserted.
  std::pair<Slot*, bool> try_emplace(DocId doc) {
    ECGF_EXPECTS(doc != kEmpty);
    if ((size_ + 1) * 8 > slots_.size() * 7) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(doc);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.doc == doc) return {&s, false};
      if (s.doc == kEmpty) {
        s.doc = doc;
        ++size_;
        return {&s, true};
      }
    }
  }

  /// Remove `doc`; false when it was absent.
  bool erase(DocId doc) {
    Slot* s = find(doc);
    if (s == nullptr) return false;
    erase(*s);
    return true;
  }

  /// Remove the entry `slot` (from find or try_emplace) without a probe.
  void erase(Slot& slot) {
    const std::size_t mask = slots_.size() - 1;
    auto hole = static_cast<std::size_t>(&slot - slots_.data());
    for (std::size_t j = (hole + 1) & mask; slots_[j].doc != kEmpty;
         j = (j + 1) & mask) {
      // Entry j may fill the hole when the hole lies on its probe path,
      // i.e. cyclically within [home, j).
      if (((j - home(slots_[j].doc)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Call f(doc, value) for every entry, in unspecified order. `f` may
  /// modify values but must not insert or erase.
  template <typename F>
  void for_each(F&& f) {
    for (Slot& s : slots_) {
      if (s.doc != kEmpty) f(s.doc, s.value);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.doc != kEmpty) f(s.doc, s.value);
    }
  }

 private:
  std::size_t home(DocId doc) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(doc) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 8 : 2 * slots_.size();
    std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(capacity));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    const std::size_t mask = capacity - 1;
    for (Slot& s : old) {
      if (s.doc == kEmpty) continue;
      std::size_t i = home(s.doc);
      while (slots_[i].doc != kEmpty) i = (i + 1) & mask;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(capacity)
};

}  // namespace ecgf::cache
