#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "hwstar/common/random.h"
#include "hwstar/ops/sort.h"

namespace hwstar::ops {
namespace {

std::vector<uint64_t> RandomValues(size_t n, uint64_t domain, uint64_t seed) {
  hwstar::Xoshiro256 rng(seed);
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = rng.NextBounded(domain);
  return v;
}

/// Radix-sorts plain values through RadixSortBy.
void RadixSortValues(std::vector<uint64_t>* v) {
  std::vector<uint64_t> scratch;
  RadixSortBy(v, &scratch, [](uint64_t x) { return x; });
}

TEST(RadixSortTest, FullWidthKeys) {
  auto v = RandomValues(10000, ~uint64_t{0}, 5);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  RadixSortValues(&v);
  EXPECT_EQ(v, expected);
}

TEST(RadixSortTest, AdaptiveSkipsConstantBytes) {
  auto v = RandomValues(10000, 1 << 16, 6);  // only 2 varying bytes
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  RadixSortValues(&v);
  EXPECT_EQ(v, expected);
}

TEST(RadixSortTest, AdaptiveAllEqual) {
  std::vector<uint64_t> v(100, 7);
  RadixSortValues(&v);
  EXPECT_EQ(v, std::vector<uint64_t>(100, 7));
}

TEST(RadixSortRelationTest, PayloadsFollowKeys) {
  Relation rel;
  rel.Append(30, 3);
  rel.Append(10, 1);
  rel.Append(20, 2);
  RadixSortRelation(&rel);
  EXPECT_EQ(rel.keys, (std::vector<uint64_t>{10, 20, 30}));
  EXPECT_EQ(rel.payloads, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(RadixSortRelationTest, StableForEqualKeys) {
  // LSB radix sort is stable: payloads of equal keys keep input order.
  Relation rel;
  rel.Append(5, 0);
  rel.Append(5, 1);
  rel.Append(5, 2);
  rel.Append(1, 9);
  RadixSortRelation(&rel);
  EXPECT_EQ(rel.payloads, (std::vector<uint64_t>{9, 0, 1, 2}));
}

TEST(RadixSortRelationTest, OddPassCountLeavesResultInPlace) {
  // Keys below 2^8 take one pass, so the sorted tuples end in the
  // temporary and must come back.
  Relation rel;
  for (uint64_t i = 0; i < 1000; ++i) rel.Append((i * 37) % 256, i);
  RadixSortRelation(&rel);
  EXPECT_TRUE(std::is_sorted(rel.keys.begin(), rel.keys.end()));
  ASSERT_EQ(rel.payloads.size(), 1000u);
  for (size_t i = 0; i < rel.size(); ++i) {
    EXPECT_EQ((rel.payloads[i] * 37) % 256, rel.keys[i]);
    if (i > 0 && rel.keys[i] == rel.keys[i - 1]) {
      EXPECT_LT(rel.payloads[i - 1], rel.payloads[i]);
    }
  }
}

/// Key shapes of the sweep: each makes the byte skip run a different
/// number of passes.
enum class KeyShape {
  kBelow2To16,  // two passes
  kBelow2To20,  // three passes
  kFullWidth,   // eight passes
  kTopByte,     // keys differ only in their top byte: one pass
};

uint64_t MakeKey(KeyShape shape, Xoshiro256* rng) {
  switch (shape) {
    case KeyShape::kBelow2To16:
      return rng->NextBounded(uint64_t{1} << 16);
    case KeyShape::kBelow2To20:
      return rng->NextBounded(uint64_t{1} << 20);
    case KeyShape::kFullWidth:
      return rng->Next();
    case KeyShape::kTopByte:
      return (rng->Next() & (uint64_t{0xFF} << 56)) | 0x0012345678ABCDEFull;
  }
  return 0;
}

/// Names each sweep case, e.g. "(1000, top_byte)".
void PrintTo(KeyShape shape, std::ostream* os) {
  switch (shape) {
    case KeyShape::kBelow2To16:
      *os << "below_2_16";
      break;
    case KeyShape::kBelow2To20:
      *os << "below_2_20";
      break;
    case KeyShape::kFullWidth:
      *os << "full_width";
      break;
    case KeyShape::kTopByte:
      *os << "top_byte";
      break;
  }
}

/// Property: RadixSortBy orders (key, index) pairs exactly as
/// std::stable_sort by key does, so it sorts and is stable.
class SortEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, KeyShape>> {};

TEST_P(SortEquivalence, MatchesStdSort) {
  const auto [n, shape] = GetParam();
  Xoshiro256 rng(n + static_cast<uint64_t>(shape));
  std::vector<std::pair<uint64_t, uint64_t>> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = {MakeKey(shape, &rng), i};
  const auto by_key = [](const std::pair<uint64_t, uint64_t>& p) {
    return p.first;
  };
  auto expected = v;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](const auto& a, const auto& b) {
                     return by_key(a) < by_key(b);
                   });

  std::vector<std::pair<uint64_t, uint64_t>> scratch;
  RadixSortBy(&v, &scratch, by_key);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortEquivalence,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 100u, 1000u, 65536u),
                       ::testing::Values(KeyShape::kBelow2To16,
                                         KeyShape::kBelow2To20,
                                         KeyShape::kFullWidth,
                                         KeyShape::kTopByte)));

}  // namespace
}  // namespace hwstar::ops
