#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "hwstar/common/random.h"
#include "hwstar/ops/btree.h"

namespace hwstar::ops {
namespace {

TEST(BPlusTreeTest, EmptyTreeFindsNothing) {
  BPlusTree tree;
  uint64_t v;
  EXPECT_FALSE(tree.Find(1, &v));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
}

TEST(BPlusTreeTest, InsertAndFind) {
  BPlusTree tree;
  tree.Insert(5, 50);
  tree.Insert(3, 30);
  tree.Insert(8, 80);
  uint64_t v;
  EXPECT_TRUE(tree.Find(5, &v));
  EXPECT_EQ(v, 50u);
  EXPECT_TRUE(tree.Find(3, &v));
  EXPECT_EQ(v, 30u);
  EXPECT_FALSE(tree.Find(4, &v));
  EXPECT_EQ(tree.size(), 3u);
}

TEST(BPlusTreeTest, DuplicateInsertOverwrites) {
  BPlusTree tree;
  tree.Insert(5, 50);
  tree.Insert(5, 99);
  uint64_t v;
  EXPECT_TRUE(tree.Find(5, &v));
  EXPECT_EQ(v, 99u);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  BPlusTree tree(4);
  for (uint64_t k = 0; k < 100; ++k) tree.Insert(k, k * 2);
  EXPECT_GT(tree.height(), 1u);
  uint64_t v;
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 2);
  }
}

TEST(BPlusTreeTest, WiderFanoutShallowerTree) {
  BPlusTree narrow(4), wide(64);
  for (uint64_t k = 0; k < 10000; ++k) {
    narrow.Insert(k, k);
    wide.Insert(k, k);
  }
  EXPECT_LT(wide.height(), narrow.height());
}

TEST(BPlusTreeTest, RangeScanInclusive) {
  BPlusTree tree(8);
  for (uint64_t k = 0; k < 100; k += 2) tree.Insert(k, k + 1000);
  std::vector<uint64_t> out;
  EXPECT_EQ(tree.RangeScan(10, 20, &out), 6u);
  EXPECT_EQ(out, (std::vector<uint64_t>{1010, 1012, 1014, 1016, 1018, 1020}));
}

TEST(BPlusTreeTest, RangeScanAcrossLeaves) {
  BPlusTree tree(4);
  for (uint64_t k = 0; k < 1000; ++k) tree.Insert(k, k);
  std::vector<uint64_t> out;
  EXPECT_EQ(tree.RangeScan(0, 999, &out), 1000u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(BPlusTreeTest, RangeScanEmptyRange) {
  BPlusTree tree(8);
  tree.Insert(10, 1);
  tree.Insert(20, 2);
  std::vector<uint64_t> out;
  EXPECT_EQ(tree.RangeScan(11, 19, &out), 0u);
}

TEST(BPlusTreeTest, RandomInsertionOrder) {
  hwstar::Xoshiro256 rng(13);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 20000; ++k) keys.push_back(k);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
  }
  BPlusTree tree(16);
  for (uint64_t k : keys) tree.Insert(k, k ^ 0xABCD);
  EXPECT_EQ(tree.size(), 20000u);
  uint64_t v;
  for (uint64_t k = 0; k < 20000; k += 111) {
    ASSERT_TRUE(tree.Find(k, &v));
    EXPECT_EQ(v, k ^ 0xABCD);
  }
}

TEST(BPlusTreeTest, BulkLoadMatchesInserted) {
  std::vector<uint64_t> keys, values;
  for (uint64_t k = 0; k < 5000; ++k) {
    keys.push_back(k * 3);
    values.push_back(k);
  }
  auto loaded = BPlusTree::BulkLoad(keys, values, 32);
  ASSERT_TRUE(loaded.ok());
  const BPlusTree& tree = loaded.value();
  EXPECT_EQ(tree.size(), 5000u);
  uint64_t v;
  for (uint64_t k = 0; k < 5000; k += 7) {
    ASSERT_TRUE(tree.Find(k * 3, &v));
    EXPECT_EQ(v, k);
    EXPECT_FALSE(tree.Find(k * 3 + 1, &v));
  }
}

TEST(BPlusTreeTest, BulkLoadRejectsUnsorted) {
  EXPECT_FALSE(BPlusTree::BulkLoad({3, 1}, {0, 0}).ok());
  EXPECT_FALSE(BPlusTree::BulkLoad({1, 1}, {0, 0}).ok());
  EXPECT_FALSE(BPlusTree::BulkLoad({1}, {0, 0}).ok());
}

TEST(BPlusTreeTest, BulkLoadEmpty) {
  auto loaded = BPlusTree::BulkLoad({}, {});
  ASSERT_TRUE(loaded.ok());
  uint64_t v;
  EXPECT_FALSE(loaded.value().Find(0, &v));
}

TEST(BPlusTreeTest, BulkLoadRangeScan) {
  std::vector<uint64_t> keys, values;
  for (uint64_t k = 0; k < 1000; ++k) {
    keys.push_back(k);
    values.push_back(k * 10);
  }
  auto loaded = BPlusTree::BulkLoad(keys, values, 16);
  ASSERT_TRUE(loaded.ok());
  std::vector<uint64_t> out;
  EXPECT_EQ(loaded.value().RangeScan(500, 509, &out), 10u);
  EXPECT_EQ(out.front(), 5000u);
  EXPECT_EQ(out.back(), 5090u);
}

TEST(BPlusTreeTest, MoveSemantics) {
  BPlusTree a(8);
  a.Insert(1, 10);
  BPlusTree b = std::move(a);
  uint64_t v;
  EXPECT_TRUE(b.Find(1, &v));
  EXPECT_EQ(b.size(), 1u);
}

TEST(BPlusTreeTest, EraseBasic) {
  BPlusTree tree(8);
  tree.Insert(1, 10);
  tree.Insert(2, 20);
  EXPECT_TRUE(tree.Erase(1));
  EXPECT_FALSE(tree.Erase(1));
  EXPECT_FALSE(tree.Erase(99));
  uint64_t v;
  EXPECT_FALSE(tree.Find(1, &v));
  EXPECT_TRUE(tree.Find(2, &v));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BPlusTreeTest, EraseKeepsScanOrderAndLeafChain) {
  BPlusTree tree(8);  // small fanout: erases leave underfull leaves
  for (uint64_t k = 0; k < 500; ++k) tree.Insert(k, k * 2);
  for (uint64_t k = 0; k < 500; k += 3) EXPECT_TRUE(tree.Erase(k));
  std::vector<uint64_t> got;
  tree.RangeScan(0, 500, &got);
  std::vector<uint64_t> want;
  for (uint64_t k = 0; k < 500; ++k) {
    if (k % 3 != 0) want.push_back(k * 2);
  }
  EXPECT_EQ(got, want);
}

TEST(BPlusTreeTest, RangeScanEntriesMatchesScan) {
  BPlusTree tree(16);
  for (uint64_t k = 0; k < 100; ++k) tree.Insert(k * 7, k);
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  EXPECT_EQ(tree.RangeScanEntries(14, 70, &entries), 9u);
  EXPECT_EQ(entries.front().first, 14u);
  EXPECT_EQ(entries.back().first, 70u);
}

TEST(BPlusTreeTest, RandomInsertEraseAgainstReference) {
  hwstar::Xoshiro256 rng(77);
  BPlusTree tree(8);
  std::map<uint64_t, uint64_t> ref;
  for (uint64_t i = 0; i < 60000; ++i) {
    const uint64_t k = rng.NextBounded(1 << 12);
    if (rng.NextBounded(3) == 0) {
      EXPECT_EQ(tree.Erase(k), ref.erase(k) == 1) << "op " << i;
    } else {
      tree.Insert(k, i);
      ref[k] = i;
    }
  }
  EXPECT_EQ(tree.size(), ref.size());
  uint64_t v;
  for (uint64_t k = 0; k < (1 << 12); ++k) {
    auto it = ref.find(k);
    EXPECT_EQ(tree.Find(k, &v), it != ref.end()) << k;
    if (it != ref.end()) {
      EXPECT_EQ(v, it->second);
    }
  }
}

/// Property: tree lookups agree with binary search over the sorted keys.
class BTreeFanoutTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreeFanoutTest, AgreesWithBinarySearch) {
  const uint32_t fanout = GetParam();
  hwstar::Xoshiro256 rng(fanout);
  std::vector<uint64_t> keys;
  BPlusTree tree(fanout);
  for (int i = 0; i < 5000; ++i) {
    uint64_t k = rng.NextBounded(1 << 20);
    tree.Insert(k, k + 1);
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  EXPECT_EQ(tree.size(), keys.size());
  for (uint64_t probe = 0; probe < (1 << 20); probe += 4099) {
    const bool in_sorted =
        std::binary_search(keys.begin(), keys.end(), probe);
    uint64_t v;
    EXPECT_EQ(tree.Find(probe, &v), in_sorted);
    if (in_sorted) {
      EXPECT_EQ(v, probe + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreeFanoutTest,
                         ::testing::Values(4u, 8u, 32u, 128u));

}  // namespace
}  // namespace hwstar::ops
