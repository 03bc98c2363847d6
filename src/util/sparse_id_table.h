#ifndef SETCOVER_UTIL_SPARSE_ID_TABLE_H_
#define SETCOVER_UTIL_SPARSE_ID_TABLE_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace setcover {

/// Id-keyed hash tables for the per-edge hot paths of Algorithms 1 and
/// 2 (`SparseIdSet`, `SparseIdMap<V>`), sized to the live population
/// rather than to the id universe.
///
/// Open addressing with linear probing over a power-of-two slot array,
/// Fibonacci-hashed. Capacity doubles when an insert would fill more
/// than half the slots and is released by `Clear()`, so the bytes a
/// table holds stay within a constant factor of the entries its owner
/// meters (tests/alloc_bytes_test.cc pins that factor per algorithm).
/// At load ≤ ½ a miss — the common case of Algorithm 1's tracked-set
/// probe — costs ~2.5 probes, all in one or two cache lines, and a
/// table of a few thousand entries stays cache-resident where an
/// m-indexed array did not.
///
/// The algorithms only insert and bulk-clear, so there is no erase and
/// probe chains never need tombstones. Id 0xFFFFFFFF (`kNoSet`) marks an
/// empty slot and is not a legal key. Callers store set ids < m or
/// element ids < n. A table stores any other id without complaint, so
/// ids read from a state message are range-checked by `DecodeState`
/// before they are inserted.
namespace sparse_detail {

inline constexpr uint32_t kEmptyId = 0xFFFFFFFFu;

/// The probing core shared by the set and the map. `Slot` is an
/// aggregate whose first member is `uint32_t id`; the remaining members
/// are value-initialized when a slot is claimed.
template <typename Slot>
class OpenIdTable {
 public:
  size_t Size() const { return size_; }

  /// Slot holding `id`, or nullptr when absent.
  const Slot* Find(uint32_t id) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[Probe(id)];
    return slot.id == id ? &slot : nullptr;
  }

  /// Slot holding `id`, claimed first when absent. Returns (slot,
  /// inserted) like try_emplace.
  std::pair<Slot&, bool> Claim(uint32_t id) {
    assert(id != kEmptyId);
    if (!slots_.empty()) {
      Slot& slot = slots_[Probe(id)];
      if (slot.id == id) return {slot, false};
      if (2 * (size_ + 1) <= slots_.size()) return {Fill(slot, id), true};
    }
    Grow();
    return {Fill(slots_[Probe(id)], id), true};
  }

  /// Drops every entry and releases the slot array.
  void Clear() {
    std::vector<Slot>().swap(slots_);
    size_ = 0;
    shift_ = 64;
  }

  /// Live slots in ascending id order.
  std::vector<Slot> Sorted() const {
    std::vector<Slot> live;
    live.reserve(size_);
    for (const Slot& slot : slots_) {
      if (slot.id != kEmptyId) live.push_back(slot);
    }
    std::sort(live.begin(), live.end(),
              [](const Slot& a, const Slot& b) { return a.id < b.id; });
    return live;
  }

 private:
  static constexpr size_t kMinSlots = 16;

  /// Index of the slot holding `id`, else of the empty slot ending its
  /// probe chain. Requires a non-empty slot array.
  size_t Probe(uint32_t id) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>((uint64_t{id} * 0x9E3779B97F4A7C15ull) >>
                                   shift_);
    while (slots_[i].id != id && slots_[i].id != kEmptyId) i = (i + 1) & mask;
    return i;
  }

  static Slot Keyed(uint32_t id) {
    Slot slot{};
    slot.id = id;
    return slot;
  }

  Slot& Fill(Slot& slot, uint32_t id) {
    slot = Keyed(id);
    ++size_;
    return slot;
  }

  void Grow() {
    const size_t capacity = std::max(kMinSlots, 2 * slots_.size());
    std::vector<Slot> old(capacity, Keyed(kEmptyId));
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& slot : old) {
      if (slot.id != kEmptyId) slots_[Probe(slot.id)] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  unsigned shift_ = 64;  // 64 − log₂(slot count): Probe's hash → index
};

}  // namespace sparse_detail

/// Set of ids — the membership-only sibling of SparseIdMap.
class SparseIdSet {
 public:
  bool Contains(uint32_t id) const { return table_.Find(id) != nullptr; }

  /// Inserts `id`; returns true when it was absent.
  bool Insert(uint32_t id) { return table_.Claim(id).second; }

  /// Number of ids held.
  size_t Size() const { return table_.Size(); }

  /// Removes every id and releases the storage.
  void Clear() { table_.Clear(); }

  /// Ids ascending — matches StateEncoder::PutSet's canonical sorted
  /// dump, so the set encodes bit-identically via PutSortedIds.
  std::vector<uint32_t> SortedIds() const {
    std::vector<uint32_t> ids;
    ids.reserve(Size());
    for (const Slot& slot : table_.Sorted()) ids.push_back(slot.id);
    return ids;
  }

  friend void swap(SparseIdSet& a, SparseIdSet& b) {
    std::swap(a.table_, b.table_);
  }

 private:
  struct Slot {
    uint32_t id;
  };
  sparse_detail::OpenIdTable<Slot> table_;
};

/// Map from ids to `V` (a value type cheap to copy).
template <typename V>
class SparseIdMap {
 public:
  /// Pointer to the value for `id`, or nullptr when absent.
  const V* Find(uint32_t id) const {
    const Entry* entry = table_.Find(id);
    return entry != nullptr ? &entry->value : nullptr;
  }

  /// Reference to the value for `id`, inserting a value-initialized one
  /// first when absent. Returns (ref, inserted) like try_emplace. The
  /// reference is invalidated by the next insert.
  std::pair<V&, bool> Slot(uint32_t id) {
    auto [entry, inserted] = table_.Claim(id);
    return {entry.value, inserted};
  }

  /// Number of entries held.
  size_t Size() const { return table_.Size(); }

  /// Removes every entry and releases the storage.
  void Clear() { table_.Clear(); }

  /// (id, value) pairs in ascending id order — the canonical ordering
  /// StateEncoder::PutMap produces, so the map encodes bit-identically
  /// via PutSortedPairs.
  std::vector<std::pair<uint32_t, uint32_t>> SortedEntries() const {
    std::vector<std::pair<uint32_t, uint32_t>> entries;
    entries.reserve(Size());
    ForEach([&](uint32_t id, const V& value) {
      entries.emplace_back(id, static_cast<uint32_t>(value));
    });
    return entries;
  }

  /// Calls fn(id, const V&) for every entry in ascending id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& entry : table_.Sorted()) fn(entry.id, entry.value);
  }

  friend void swap(SparseIdMap& a, SparseIdMap& b) {
    std::swap(a.table_, b.table_);
  }

 private:
  struct Entry {
    uint32_t id;
    V value;
  };
  sparse_detail::OpenIdTable<Entry> table_;
};

}  // namespace setcover

#endif  // SETCOVER_UTIL_SPARSE_ID_TABLE_H_
