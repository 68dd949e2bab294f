#include <gtest/gtest.h>

#include <map>

#include "hwstar/exec/executor.h"
#include "hwstar/ops/aggregation.h"
#include "hwstar/workload/distributions.h"

namespace hwstar::ops {
namespace {

std::map<uint64_t, std::pair<int64_t, uint64_t>> Reference(
    const std::vector<uint64_t>& keys, const std::vector<int64_t>& values) {
  std::map<uint64_t, std::pair<int64_t, uint64_t>> ref;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto& [sum, count] = ref[keys[i]];
    sum += values[i];
    ++count;
  }
  return ref;
}

TEST(SumTest, Basic) {
  EXPECT_EQ(Sum(std::vector<int64_t>{1, 2, 3}), 6);
  EXPECT_EQ(Sum(std::vector<int64_t>{}), 0);
  EXPECT_EQ(Sum(std::vector<int64_t>{-5, 5}), 0);
}

TEST(HashAggregateTest, BasicGroups) {
  std::vector<uint64_t> keys = {1, 2, 1, 3, 2, 1};
  std::vector<int64_t> values = {10, 20, 30, 40, 50, 60};
  auto groups = HashAggregate(keys, values);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].key, 1u);
  EXPECT_EQ(groups[0].sum, 100);
  EXPECT_EQ(groups[0].count, 3u);
  EXPECT_EQ(groups[1].key, 2u);
  EXPECT_EQ(groups[1].sum, 70);
  EXPECT_EQ(groups[2].key, 3u);
  EXPECT_EQ(groups[2].sum, 40);
}

TEST(HashAggregateTest, EmptyInput) {
  EXPECT_TRUE(HashAggregate({}, {}).empty());
}

TEST(HashAggregateTest, SingleGroupManyRows) {
  std::vector<uint64_t> keys(10000, 7);
  std::vector<int64_t> values(10000, 2);
  auto groups = HashAggregate(keys, values);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].sum, 20000);
  EXPECT_EQ(groups[0].count, 10000u);
}

TEST(HashAggregateTest, ManyDistinctGroupsForcesGrowth) {
  // More groups than the initial table capacity: exercises Grow().
  std::vector<uint64_t> keys;
  std::vector<int64_t> values;
  for (uint64_t i = 0; i < 50000; ++i) {
    keys.push_back(i);
    values.push_back(static_cast<int64_t>(i));
  }
  auto groups = HashAggregate(keys, values);
  ASSERT_EQ(groups.size(), 50000u);
  EXPECT_EQ(groups[123].key, 123u);
  EXPECT_EQ(groups[123].sum, 123);
}

/// Property: plain, partitioned, and parallel-partitioned aggregation all
/// match the reference across group counts and skew.
///
/// gtest names each instance after a byte dump of its AggParam, so the
/// struct has no padding: `name_tag` spells out the three bytes after
/// `parallel` as zeros. Left as padding they were uninitialised, and the
/// test names changed from one build to the next.
struct AggParam {
  uint64_t rows;
  uint64_t groups;
  double theta;
  uint32_t radix_bits;
  bool parallel;
  uint8_t name_tag[3] = {};
};
static_assert(sizeof(AggParam) == 32, "AggParam must have no padding");

class AggEquivalence : public ::testing::TestWithParam<AggParam> {};

TEST_P(AggEquivalence, MatchesReference) {
  const AggParam p = GetParam();
  auto keys = workload::ZipfKeys(p.rows, p.groups, p.theta, 77);
  std::vector<int64_t> values(p.rows);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int64_t>(i % 997) - 498;
  }
  auto ref = Reference(keys, values);

  exec::Executor pool(2);
  HashAggregateOptions opts;
  opts.radix_bits = p.radix_bits;
  opts.pool = p.parallel ? &pool : nullptr;
  auto groups = HashAggregate(keys, values, opts);

  ASSERT_EQ(groups.size(), ref.size());
  for (const auto& g : groups) {
    auto it = ref.find(g.key);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(g.sum, it->second.first);
    EXPECT_EQ(g.count, it->second.second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggEquivalence,
    ::testing::Values(AggParam{1000, 10, 0.0, 0, false},
                      AggParam{1000, 10, 0.0, 4, false},
                      AggParam{10000, 1000, 0.5, 0, false},
                      AggParam{10000, 1000, 0.5, 6, false},
                      AggParam{10000, 1000, 0.9, 6, true},
                      AggParam{50000, 50000, 0.0, 8, true},
                      AggParam{100, 1, 0.0, 2, false}));

}  // namespace
}  // namespace hwstar::ops
