#include "util/sparse_id_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/serialize.h"

namespace setcover {
namespace {

// The EpochArray / EpochSet suites below are named after the m-indexed
// tables SparseIdMap / SparseIdSet replaced; each case pins the same
// behaviour on the sparse tables.

TEST(EpochArray, SlotInsertsAndFinds) {
  SparseIdMap<uint32_t> array;
  EXPECT_EQ(array.Size(), 0u);
  EXPECT_EQ(array.Find(5), nullptr);

  auto [value, inserted] = array.Slot(5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(value, 0u);  // fresh slots start value-initialized
  value = 7;
  EXPECT_EQ(array.Size(), 1u);
  ASSERT_NE(array.Find(5), nullptr);
  EXPECT_EQ(*array.Find(5), 7u);

  auto [again, inserted_again] = array.Slot(5);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(again, 7u);  // re-taking a live slot must not reset it
  EXPECT_EQ(array.Size(), 1u);
}

TEST(EpochArray, ClearAllEmptiesAndSlotsResetAfterClear) {
  SparseIdMap<uint32_t> array;
  array.Slot(3).first = 42;
  array.Slot(6).first = 43;
  EXPECT_EQ(array.Size(), 2u);

  array.Clear();
  EXPECT_EQ(array.Size(), 0u);
  EXPECT_EQ(array.Find(3), nullptr);
  EXPECT_EQ(array.Find(6), nullptr);

  // A value from before the clear must not leak through.
  auto [value, inserted] = array.Slot(3);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(value, 0u);
}

TEST(EpochArray, SortedEntriesMatchesPutMapWireFormat) {
  SparseIdMap<uint32_t> array;
  std::unordered_map<uint32_t, uint32_t> mirror;
  for (uint32_t id : {97u, 4u, 31u, 0u, 55u}) {
    uint32_t v = id * 3 + 1;
    array.Slot(id).first = v;
    mirror[id] = v;
  }
  StateEncoder sparse, hashed;
  sparse.PutSortedPairs(array.SortedEntries());
  hashed.PutMap(mirror);
  EXPECT_EQ(sparse.Words(), hashed.Words());
  EXPECT_EQ(sparse.SizeWords(), EncodedMapWords(array.Size()));
}

TEST(EpochArray, ForEachVisitsAscending) {
  SparseIdMap<uint32_t> array;
  for (uint32_t id : {40u, 2u, 17u}) array.Slot(id).first = id + 100;
  std::vector<std::pair<uint32_t, uint32_t>> seen;
  array.ForEach([&](uint32_t id, uint32_t value) {
    seen.emplace_back(id, value);
  });
  std::vector<std::pair<uint32_t, uint32_t>> expected = {
      {2, 102}, {17, 117}, {40, 140}};
  EXPECT_EQ(seen, expected);
}

TEST(EpochArray, SwapExchangesContents) {
  SparseIdMap<uint32_t> a, b;
  a.Slot(1).first = 11;
  b.Slot(2).first = 22;
  b.Clear();
  b.Slot(3).first = 33;
  swap(a, b);
  EXPECT_EQ(a.Find(1), nullptr);
  ASSERT_NE(a.Find(3), nullptr);
  EXPECT_EQ(*a.Find(3), 33u);
  ASSERT_NE(b.Find(1), nullptr);
  EXPECT_EQ(*b.Find(1), 11u);
  EXPECT_EQ(b.Find(2), nullptr);
}

TEST(EpochSet, InsertContainsClear) {
  SparseIdSet set;
  EXPECT_TRUE(set.Insert(7));
  EXPECT_FALSE(set.Insert(7));  // duplicate insert reports present
  EXPECT_TRUE(set.Insert(19));
  EXPECT_EQ(set.Size(), 2u);
  EXPECT_TRUE(set.Contains(7));
  EXPECT_FALSE(set.Contains(8));

  set.Clear();
  EXPECT_EQ(set.Size(), 0u);
  EXPECT_FALSE(set.Contains(7));
  EXPECT_TRUE(set.Insert(7));
}

TEST(EpochSet, SortedIdsMatchesPutSetWireFormat) {
  SparseIdSet set;
  std::unordered_set<uint32_t> mirror;
  for (uint32_t id : {63u, 0u, 12u, 5u}) {
    set.Insert(id);
    mirror.insert(id);
  }
  StateEncoder sparse, hashed;
  sparse.PutSortedIds(set.SortedIds());
  hashed.PutSet(mirror);
  EXPECT_EQ(sparse.Words(), hashed.Words());
  EXPECT_EQ(sparse.SizeWords(), EncodedSetWords(set.Size()));
}

// Re-use after a grown table is cleared, as Begin() does on reruns.
TEST(EpochSet, AssignResetsEverything) {
  SparseIdSet set;
  for (uint32_t id = 0; id < 1000; ++id) set.Insert(id * 7);
  set.Clear();
  EXPECT_EQ(set.Size(), 0u);
  EXPECT_FALSE(set.Contains(0));
  EXPECT_FALSE(set.Contains(700));
  EXPECT_TRUE(set.SortedIds().empty());
  EXPECT_TRUE(set.Insert(700));
  EXPECT_EQ(set.SortedIds(), std::vector<uint32_t>{700});
}

// Many clear cycles in sequence: nothing from an earlier cycle may stay
// visible.
TEST(EpochSet, ManyClearCyclesStaySound) {
  SparseIdSet set;
  for (int cycle = 0; cycle < 10000; ++cycle) {
    EXPECT_TRUE(set.Insert(cycle % 3));
    EXPECT_EQ(set.Size(), 1u);
    set.Clear();
    EXPECT_FALSE(set.Contains(cycle % 3));
  }
}

// Ids for the differential runs: a dense low range (so inserts hit
// existing keys), strided ids (high bits only, to stress the hash),
// uniform 32-bit ids, and the largest legal id 0xFFFFFFFE — one below
// the empty-slot marker.
uint32_t DrawId(Rng& rng) {
  switch (rng.UniformInt(8)) {
    case 0:
      return 0xFFFFFFFEu - static_cast<uint32_t>(rng.UniformInt(3));
    case 1:
      return static_cast<uint32_t>(rng.UniformInt(256)) << 24;
    case 2:
      return static_cast<uint32_t>(rng.UniformInt(0xFFFFFFFFu));
    default:
      return static_cast<uint32_t>(rng.UniformInt(4096));
  }
}

std::vector<uint32_t> SortedMirror(const std::unordered_set<uint32_t>& s) {
  std::vector<uint32_t> ids(s.begin(), s.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::pair<uint32_t, uint32_t>> SortedMirror(
    const std::unordered_map<uint32_t, uint32_t>& m) {
  std::vector<std::pair<uint32_t, uint32_t>> entries(m.begin(), m.end());
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(SparseIdSet, MatchesUnorderedSetUnderMixedOperations) {
  Rng rng(91);
  SparseIdSet tables[2];
  std::unordered_set<uint32_t> mirrors[2];
  size_t max_size = 0;
  int clears = 0;
  for (int op = 0; op < 40000; ++op) {
    const int t = rng.UniformInt(4) == 0 ? 1 : 0;
    const uint32_t id = DrawId(rng);
    const uint64_t kind = rng.UniformInt(1000);
    if (kind < 550) {
      ASSERT_EQ(tables[t].Insert(id), mirrors[t].insert(id).second)
          << "op " << op << " id " << id;
    } else if (kind < 990) {
      ASSERT_EQ(tables[t].Contains(id), mirrors[t].count(id) == 1)
          << "op " << op << " id " << id;
    } else if (kind < 996) {
      swap(tables[0], tables[1]);
      std::swap(mirrors[0], mirrors[1]);
    } else if (mirrors[t].size() > 1024) {
      // Clear after growth, then keep using the table.
      tables[t].Clear();
      mirrors[t].clear();
      ++clears;
    }
    ASSERT_EQ(tables[t].Size(), mirrors[t].size());
    max_size = std::max(max_size, mirrors[t].size());
    if (op % 997 == 0) {
      for (int k = 0; k < 2; ++k) {
        ASSERT_EQ(tables[k].SortedIds(), SortedMirror(mirrors[k]));
      }
    }
  }
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(tables[k].SortedIds(), SortedMirror(mirrors[k]));
  }
  // The run must have crossed several doublings (16 → 32 → … slots)
  // and cleared grown tables.
  EXPECT_GT(max_size, 512u);
  EXPECT_GT(clears, 5);
}

TEST(SparseIdMap, MatchesUnorderedMapUnderMixedOperations) {
  Rng rng(92);
  SparseIdMap<uint32_t> tables[2];
  std::unordered_map<uint32_t, uint32_t> mirrors[2];
  size_t max_size = 0;
  int clears = 0;
  for (int op = 0; op < 40000; ++op) {
    const int t = rng.UniformInt(4) == 0 ? 1 : 0;
    const uint32_t id = DrawId(rng);
    const uint64_t kind = rng.UniformInt(1000);
    if (kind < 550) {
      // The algorithms' increment idiom: ++Slot(id).first.
      auto [value, inserted] = tables[t].Slot(id);
      auto [it, mirror_inserted] = mirrors[t].try_emplace(id, 0);
      ASSERT_EQ(inserted, mirror_inserted) << "op " << op << " id " << id;
      ASSERT_EQ(value, it->second);
      value += static_cast<uint32_t>(kind) + 1;
      it->second += static_cast<uint32_t>(kind) + 1;
    } else if (kind < 990) {
      const uint32_t* found = tables[t].Find(id);
      auto it = mirrors[t].find(id);
      ASSERT_EQ(found != nullptr, it != mirrors[t].end())
          << "op " << op << " id " << id;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    } else if (kind < 996) {
      swap(tables[0], tables[1]);
      std::swap(mirrors[0], mirrors[1]);
    } else if (mirrors[t].size() > 1024) {
      tables[t].Clear();
      mirrors[t].clear();
      ++clears;
    }
    ASSERT_EQ(tables[t].Size(), mirrors[t].size());
    max_size = std::max(max_size, mirrors[t].size());
    if (op % 997 == 0) {
      for (int k = 0; k < 2; ++k) {
        const auto expected = SortedMirror(mirrors[k]);
        ASSERT_EQ(tables[k].SortedEntries(), expected);
        std::vector<std::pair<uint32_t, uint32_t>> visited;
        tables[k].ForEach([&](uint32_t id, const uint32_t& value) {
          visited.emplace_back(id, value);
        });
        ASSERT_EQ(visited, expected);
      }
    }
  }
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(tables[k].SortedEntries(), SortedMirror(mirrors[k]));
  }
  EXPECT_GT(max_size, 512u);
  EXPECT_GT(clears, 5);
}

TEST(SparseIdMap, LargestLegalIdSitsBesideTheEmptyMarker) {
  SparseIdMap<uint32_t> map;
  SparseIdSet set;
  EXPECT_EQ(map.Find(0xFFFFFFFEu), nullptr);
  EXPECT_FALSE(set.Contains(0xFFFFFFFEu));
  map.Slot(0xFFFFFFFEu).first = 9;
  EXPECT_TRUE(set.Insert(0xFFFFFFFEu));
  // Grow both tables past several doublings around the big id.
  for (uint32_t id = 0; id < 300; ++id) {
    map.Slot(0xFFFFFFFDu - id).first = id;
    set.Insert(id);
  }
  ASSERT_NE(map.Find(0xFFFFFFFEu), nullptr);
  EXPECT_EQ(*map.Find(0xFFFFFFFEu), 9u);
  EXPECT_TRUE(set.Contains(0xFFFFFFFEu));
  EXPECT_EQ(map.SortedEntries().back(),
            (std::pair<uint32_t, uint32_t>{0xFFFFFFFEu, 9u}));
  EXPECT_EQ(set.SortedIds().back(), 0xFFFFFFFEu);
  EXPECT_EQ(set.SortedIds().front(), 0u);
}

}  // namespace
}  // namespace setcover
