#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "hwstar/common/random.h"
#include "hwstar/ops/art.h"
#include "hwstar/sync/epoch.h"

namespace hwstar::ops {
namespace {

TEST(ArtTest, EmptyTree) {
  AdaptiveRadixTree art;
  uint64_t v;
  EXPECT_FALSE(art.Find(0, &v));
  EXPECT_FALSE(art.Find(~uint64_t{0}, &v));
  EXPECT_EQ(art.size(), 0u);
}

TEST(ArtTest, SingleKey) {
  AdaptiveRadixTree art;
  art.Insert(42, 420);
  uint64_t v;
  ASSERT_TRUE(art.Find(42, &v));
  EXPECT_EQ(v, 420u);
  EXPECT_FALSE(art.Find(43, &v));
  EXPECT_EQ(art.size(), 1u);
}

TEST(ArtTest, OverwriteDuplicate) {
  AdaptiveRadixTree art;
  art.Insert(7, 1);
  art.Insert(7, 2);
  uint64_t v;
  ASSERT_TRUE(art.Find(7, &v));
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(art.size(), 1u);
}

TEST(ArtTest, KeysSharingLongPrefix) {
  // Keys differing only in the last byte exercise lazy expansion and
  // path compression: one inner node 7 levels deep (or a compressed
  // path).
  AdaptiveRadixTree art;
  art.Insert(0x1122334455667700ULL, 1);
  art.Insert(0x1122334455667701ULL, 2);
  art.Insert(0x1122334455667802ULL, 3);
  uint64_t v;
  ASSERT_TRUE(art.Find(0x1122334455667700ULL, &v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(art.Find(0x1122334455667701ULL, &v));
  EXPECT_EQ(v, 2u);
  ASSERT_TRUE(art.Find(0x1122334455667802ULL, &v));
  EXPECT_EQ(v, 3u);
  EXPECT_FALSE(art.Find(0x1122334455667703ULL, &v));
  // Only a handful of inner nodes, thanks to path compression.
  auto counts = art.CountNodes();
  EXPECT_EQ(counts.leaves, 3u);
  EXPECT_LE(counts.node4 + counts.node16 + counts.node48 + counts.node256,
            3u);
}

TEST(ArtTest, NodeGrowth4To16To48To256) {
  // Dense low bytes under one parent force every growth step.
  AdaptiveRadixTree art;
  for (uint64_t b = 0; b < 256; ++b) {
    art.Insert(0xAA00 | b, b);
  }
  auto counts = art.CountNodes();
  EXPECT_EQ(counts.leaves, 256u);
  EXPECT_EQ(counts.node256, 1u);
  uint64_t v;
  for (uint64_t b = 0; b < 256; ++b) {
    ASSERT_TRUE(art.Find(0xAA00 | b, &v)) << b;
    EXPECT_EQ(v, b);
  }
}

TEST(ArtTest, AdaptivityCensus) {
  // Sparse random keys should be dominated by small nodes.
  AdaptiveRadixTree art;
  hwstar::Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) art.Insert(rng.Next(), i);
  auto counts = art.CountNodes();
  EXPECT_GT(counts.node4 + counts.node16, counts.node48 + counts.node256);
}

TEST(ArtTest, RangeScanOrderedAndBounded) {
  AdaptiveRadixTree art;
  for (uint64_t k = 0; k < 1000; k += 3) art.Insert(k, k + 1);
  std::vector<uint64_t> out;
  const uint64_t n = art.RangeScan(10, 50, &out);
  // Keys 12,15,...,48 -> 13 values.
  EXPECT_EQ(n, 13u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.front(), 13u);
  EXPECT_EQ(out.back(), 49u);
}

TEST(ArtTest, RangeScanFullDomainEdges) {
  AdaptiveRadixTree art;
  art.Insert(0, 100);
  art.Insert(~uint64_t{0}, 200);
  art.Insert(1ull << 63, 300);
  std::vector<uint64_t> out;
  EXPECT_EQ(art.RangeScan(0, ~uint64_t{0}, &out), 3u);
  EXPECT_EQ(out, (std::vector<uint64_t>{100, 300, 200}));
}

TEST(ArtTest, MoveSemantics) {
  AdaptiveRadixTree a;
  a.Insert(1, 10);
  AdaptiveRadixTree b = std::move(a);
  uint64_t v;
  EXPECT_TRUE(b.Find(1, &v));
  EXPECT_EQ(b.size(), 1u);
  a = std::move(b);
  EXPECT_TRUE(a.Find(1, &v));
}

/// The per-kind node sizes: leaf 32, N4 56, N16 168, N48 664, N256 2072.
uint64_t KindBytes(const AdaptiveRadixTree::NodeCounts& c) {
  return c.leaves * 32 + c.node4 * 56 + c.node16 * 168 + c.node48 * 664 +
         c.node256 * 2072;
}

/// Keys that grow a node of every kind: 0..299 puts an N256 and an N48
/// under an N4, and 16 and 3 keys under two more subtrees add an N16 and
/// an N4.
void InsertEveryKind(AdaptiveRadixTree* art) {
  for (uint64_t k = 0; k < 300; ++k) art->Insert(k, k);
  for (uint64_t k = 0; k < 16; ++k) art->Insert(0x20000 | k, k);
  for (uint64_t k = 0; k < 3; ++k) art->Insert(0x30000 | k, k);
}

TEST(ArtTest, MemoryBytesPerKind) {
  AdaptiveRadixTree mixed;
  InsertEveryKind(&mixed);
  const auto counts = mixed.CountNodes();
  EXPECT_GE(counts.node4, 2u);
  EXPECT_EQ(counts.node16, 1u);
  EXPECT_EQ(counts.node48, 1u);
  EXPECT_EQ(counts.node256, 1u);
  EXPECT_EQ(mixed.MemoryBytes(), KindBytes(counts));

  // A leaf costs its key and value, not the widest inner layout: both
  // kv_serve's sparse shape (keys i << 48) and dense keys stay far under
  // 100 bytes per key.
  constexpr uint64_t kKeys = uint64_t{1} << 16;
  AdaptiveRadixTree sparse;
  AdaptiveRadixTree dense;
  for (uint64_t i = 0; i < kKeys; ++i) {
    sparse.Insert(i << 48, i);
    dense.Insert(i, i);
  }
  for (const AdaptiveRadixTree* art : {&sparse, &dense}) {
    EXPECT_EQ(art->MemoryBytes(), KindBytes(art->CountNodes()));
    EXPECT_LT(art->MemoryBytes() / art->size(), 100u);
  }
}

TEST(ArtTest, EraseRetiresEveryNodeAtItsKindSize) {
  sync::EpochManager epoch;
  AdaptiveRadixTree art;
  art.SetEpochManager(&epoch);
  InsertEveryKind(&art);
  epoch.ReclaimAll();  // the nodes growth replaced
  ASSERT_EQ(epoch.stats().retired_bytes, 0u);
  const uint64_t bytes = art.MemoryBytes();
  {
    // A held pin keeps every retired node allocated, so the retire
    // accounting adds up to the whole tree plus the two copies that
    // collapses made: folding a prefix into an inner child replaces the
    // child by a copy (here an N48, 664 bytes, then an N4, 56 bytes),
    // which is retired in turn.
    sync::EpochManager::Guard guard(epoch);
    for (uint64_t k = 0; k < 300; ++k) ASSERT_TRUE(art.Erase(k));
    for (uint64_t k = 0; k < 16; ++k) ASSERT_TRUE(art.Erase(0x20000 | k));
    for (uint64_t k = 0; k < 3; ++k) ASSERT_TRUE(art.Erase(0x30000 | k));
    EXPECT_EQ(art.size(), 0u);
    EXPECT_EQ(art.MemoryBytes(), 0u);
    EXPECT_EQ(epoch.stats().retired_bytes, bytes + 664 + 56);
  }
  epoch.ReclaimAll();
  EXPECT_EQ(epoch.stats().retired_bytes, 0u);
}

TEST(ArtTest, EraseBasic) {
  AdaptiveRadixTree art;
  art.Insert(1, 10);
  art.Insert(2, 20);
  EXPECT_TRUE(art.Erase(1));
  EXPECT_FALSE(art.Erase(1));  // already gone
  EXPECT_FALSE(art.Erase(99));
  uint64_t v;
  EXPECT_FALSE(art.Find(1, &v));
  EXPECT_TRUE(art.Find(2, &v));
  EXPECT_EQ(art.size(), 1u);
  EXPECT_TRUE(art.Erase(2));
  EXPECT_EQ(art.size(), 0u);
  art.Insert(1, 11);  // reusable after emptying
  EXPECT_TRUE(art.Find(1, &v));
  EXPECT_EQ(v, 11u);
}

TEST(ArtTest, EraseCollapsesAcrossNodeKinds) {
  // Dense low bytes grow nodes through N4/N16/N48/N256; erasing back down
  // exercises every RemoveChild shape and the single-child collapse.
  AdaptiveRadixTree art;
  for (uint64_t k = 0; k < 300; ++k) art.Insert(k, k);
  for (uint64_t k = 0; k < 300; k += 2) EXPECT_TRUE(art.Erase(k));
  EXPECT_EQ(art.size(), 150u);
  uint64_t v;
  for (uint64_t k = 0; k < 300; ++k) {
    EXPECT_EQ(art.Find(k, &v), k % 2 == 1) << k;
    if (k % 2 == 1) {
      EXPECT_EQ(v, k);
    }
  }
  std::vector<uint64_t> out;
  EXPECT_EQ(art.RangeScan(0, 300, &out), 150u);
}

TEST(ArtTest, RangeScanEntriesMatchesScan) {
  AdaptiveRadixTree art;
  for (uint64_t k = 0; k < 64; ++k) art.Insert(k << 40, k);
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  EXPECT_EQ(art.RangeScanEntries(0, ~uint64_t{0}, &entries), 64u);
  for (uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(entries[k].first, k << 40);
    EXPECT_EQ(entries[k].second, k);
  }
}

TEST(ArtTest, RandomInsertEraseAgainstReference) {
  hwstar::Xoshiro256 rng(2024);
  AdaptiveRadixTree art;
  std::map<uint64_t, uint64_t> ref;
  for (uint64_t i = 0; i < 60000; ++i) {
    const uint64_t k = rng.NextBounded(1 << 12);
    if (rng.NextBounded(3) == 0) {
      EXPECT_EQ(art.Erase(k), ref.erase(k) == 1) << "op " << i;
    } else {
      art.Insert(k, i);
      ref[k] = i;
    }
  }
  EXPECT_EQ(art.size(), ref.size());
  uint64_t v;
  for (uint64_t k = 0; k < (1 << 12); ++k) {
    auto it = ref.find(k);
    EXPECT_EQ(art.Find(k, &v), it != ref.end()) << k;
    if (it != ref.end()) {
      EXPECT_EQ(v, it->second);
    }
  }
}

/// Property: ART agrees with std::map across key distributions.
class ArtEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(ArtEquivalence, MatchesReferenceMap) {
  const auto [count, domain] = GetParam();
  hwstar::Xoshiro256 rng(count ^ domain);
  AdaptiveRadixTree art;
  std::map<uint64_t, uint64_t> ref;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t k = rng.NextBounded(domain);
    art.Insert(k, i);
    ref[k] = i;
  }
  EXPECT_EQ(art.size(), ref.size());
  // Point lookups.
  for (uint64_t probe = 0; probe < 2000; ++probe) {
    const uint64_t k = rng.NextBounded(domain * 2);
    uint64_t v;
    const bool found = art.Find(k, &v);
    auto it = ref.find(k);
    EXPECT_EQ(found, it != ref.end()) << k;
    if (found) {
      EXPECT_EQ(v, it->second);
    }
  }
  // Range scan equals in-order reference walk.
  const uint64_t lo = domain / 4, hi = domain / 2;
  std::vector<uint64_t> got, want;
  art.RangeScan(lo, hi, &got);
  for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
       ++it) {
    want.push_back(it->second);
  }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArtEquivalence,
    ::testing::Combine(::testing::Values(10u, 1000u, 50000u),
                       ::testing::Values(100u, 1u << 16, 1ull << 40)));

}  // namespace
}  // namespace hwstar::ops
