#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "hwstar/exec/executor.h"
#include "hwstar/ops/hash_table.h"
#include "hwstar/ops/join_nop.h"
#include "hwstar/ops/join_radix.h"
#include "hwstar/ops/join_sort_merge.h"
#include "hwstar/workload/distributions.h"

namespace hwstar::ops {
namespace {

/// Ground truth: match count via std::map multiset semantics.
uint64_t ReferenceJoinCount(const Relation& r, const Relation& s) {
  std::map<uint64_t, uint64_t> counts;
  for (uint64_t k : r.keys) ++counts[k];
  uint64_t total = 0;
  for (uint64_t k : s.keys) {
    auto it = counts.find(k);
    if (it != counts.end()) total += it->second;
  }
  return total;
}

TEST(LinearProbeTableTest, InsertFindProbe) {
  LinearProbeTable table(100);
  table.Insert(5, 50);
  table.Insert(7, 70);
  uint64_t out = 0;
  EXPECT_TRUE(table.Find(5, &out));
  EXPECT_EQ(out, 50u);
  EXPECT_FALSE(table.Find(6, &out));
  EXPECT_EQ(table.CountMatches(7), 1u);
  EXPECT_EQ(table.CountMatches(42), 0u);
}

TEST(LinearProbeTableTest, DuplicateKeysAllVisited) {
  LinearProbeTable table(100);
  table.Insert(9, 1);
  table.Insert(9, 2);
  table.Insert(9, 3);
  std::vector<uint64_t> values;
  EXPECT_EQ(table.Probe(9, [&](uint64_t v) { values.push_back(v); }), 3u);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<uint64_t>{1, 2, 3}));
}

TEST(LinearProbeTableTest, CapacityIsPowerOfTwoAndSized) {
  LinearProbeTable table(1000, 0.5);
  EXPECT_GE(table.capacity(), 2000u);
  EXPECT_EQ(table.capacity() & (table.capacity() - 1), 0u);
}

TEST(LinearProbeTableTest, ProbeLengthGrowsWithLoadFactor) {
  auto fill = [](double lf) {
    LinearProbeTable table(10000, lf);
    std::vector<uint64_t> keys;
    for (uint64_t k = 1; k <= 10000; ++k) {
      table.Insert(k, k);
      keys.push_back(k);
    }
    return table.MeasureAvgProbeLength(keys);
  };
  EXPECT_LT(fill(0.25), fill(0.9));
}

TEST(ChainedTableTest, InsertFindProbe) {
  ChainedTable table(64);
  table.Insert(5, 50);
  table.Insert(5, 51);
  table.Insert(6, 60);
  uint64_t out = 0;
  EXPECT_TRUE(table.Find(6, &out));
  EXPECT_EQ(out, 60u);
  EXPECT_EQ(table.CountMatches(5), 2u);
  EXPECT_EQ(table.CountMatches(99), 0u);
  EXPECT_GT(table.MemoryBytes(), 0u);
}

TEST(JoinTest, TinyHandCheckedJoin) {
  Relation r, s;
  r.Append(1, 100);
  r.Append(2, 200);
  r.Append(2, 201);
  s.Append(2, 900);
  s.Append(3, 901);
  s.Append(1, 902);

  auto npo = NoPartitionHashJoin(r, s);
  EXPECT_EQ(npo.matches, 3u);

  NoPartitionJoinOptions mat;
  mat.materialize = true;
  auto pairs = NoPartitionHashJoin(r, s, mat);
  ASSERT_EQ(pairs.pairs.size(), 3u);
  // key 2 matches payloads {200, 201} x 900; key 1 matches 100 x 902.
  std::multiset<std::pair<uint64_t, uint64_t>> got;
  for (const auto& p : pairs.pairs) got.insert({p.build_payload, p.probe_payload});
  std::multiset<std::pair<uint64_t, uint64_t>> want = {
      {200, 900}, {201, 900}, {100, 902}};
  EXPECT_EQ(got, want);
}

TEST(JoinTest, EmptyInputs) {
  Relation empty, r;
  r.Append(1, 1);
  EXPECT_EQ(NoPartitionHashJoin(empty, r).matches, 0u);
  EXPECT_EQ(NoPartitionHashJoin(r, empty).matches, 0u);
  EXPECT_EQ(RadixHashJoin(empty, empty).matches, 0u);
  EXPECT_EQ(SortMergeJoin(empty, r).matches, 0u);
}

TEST(RadixPartitionTest, PreservesTuplesAndGroupsKeys) {
  Relation input = workload::MakeProbeRelation(5000, 1000, 0.0, 3);
  Relation output;
  std::vector<uint64_t> offsets;
  RadixPartition(input, 4, 0, &output, &offsets);
  ASSERT_EQ(offsets.size(), 17u);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), input.size());
  // Multiset of (key,payload) preserved.
  std::multiset<std::pair<uint64_t, uint64_t>> in_set, out_set;
  for (uint64_t i = 0; i < input.size(); ++i) {
    in_set.insert({input.keys[i], input.payloads[i]});
    out_set.insert({output.keys[i], output.payloads[i]});
  }
  EXPECT_EQ(in_set, out_set);
  // All occurrences of a key land in one partition.
  std::map<uint64_t, uint64_t> key_part;
  for (uint64_t p = 0; p < 16; ++p) {
    for (uint64_t i = offsets[p]; i < offsets[p + 1]; ++i) {
      auto [it, inserted] = key_part.emplace(output.keys[i], p);
      EXPECT_EQ(it->second, p);
    }
  }
}

TEST(RecommendRadixBitsTest, ScalesWithInput) {
  EXPECT_EQ(RecommendRadixBits(0, 1 << 20), 0u);
  EXPECT_EQ(RecommendRadixBits(1000, 1 << 20), 0u);  // fits in cache
  const uint32_t bits_small = RecommendRadixBits(1 << 20, 1 << 20);
  const uint32_t bits_big = RecommendRadixBits(1 << 24, 1 << 20);
  EXPECT_GT(bits_small, 0u);
  EXPECT_GT(bits_big, bits_small);
}

TEST(RadixJoinTest, TimingPhasesReported) {
  Relation r = workload::MakeBuildRelation(10000, 1);
  Relation s = workload::MakeProbeRelation(40000, 10000, 0.0, 2);
  RadixJoinTiming timing;
  RadixJoinOptions opts;
  opts.radix_bits = 6;
  auto result = RadixHashJoin(r, s, opts, &timing);
  EXPECT_EQ(result.matches, 40000u);
  EXPECT_GE(timing.partition_seconds, 0.0);
  EXPECT_GT(timing.join_seconds, 0.0);
}

TEST(SortMergeJoinTest, PresortedInputsSkipSort) {
  Relation r, s;
  for (uint64_t i = 0; i < 100; ++i) r.Append(i * 2, i);
  for (uint64_t i = 0; i < 100; ++i) s.Append(i, i);
  SortMergeJoinOptions opts;
  opts.inputs_sorted = true;
  // Even keys 0..198 intersect 0..99 -> 50 matches.
  EXPECT_EQ(SortMergeJoin(r, s, opts).matches, 50u);
}

TEST(SortMergeJoinTest, DuplicateCrossProduct) {
  Relation r, s;
  r.Append(7, 1);
  r.Append(7, 2);
  s.Append(7, 3);
  s.Append(7, 4);
  s.Append(7, 5);
  SortMergeJoinOptions opts;
  opts.materialize = true;
  auto result = SortMergeJoin(r, s, opts);
  EXPECT_EQ(result.matches, 6u);
  EXPECT_EQ(result.pairs.size(), 6u);
}

/// Property: all join algorithms agree with the reference count across
/// sizes, skew, radix bits, pass counts, and parallelism.
///
/// gtest names each instance after a byte dump of its JoinParam, so the
/// struct has no padding: `name_tag` spells out the seven bytes after
/// `parallel` as zeros. Left as padding they were uninitialised, and the
/// test names changed from one build to the next.
struct JoinParam {
  uint64_t build_size;
  uint64_t probe_size;
  double theta;
  uint32_t radix_bits;
  uint32_t passes;
  bool parallel;
  uint8_t name_tag[7] = {};
};
static_assert(sizeof(JoinParam) == 40, "JoinParam must have no padding");

class JoinEquivalence : public ::testing::TestWithParam<JoinParam> {};

TEST_P(JoinEquivalence, AllAlgorithmsAgree) {
  const JoinParam p = GetParam();
  Relation r = workload::MakeBuildRelation(p.build_size, 11);
  Relation s = workload::MakeProbeRelation(p.probe_size, p.build_size,
                                           p.theta, 12);
  const uint64_t expected = ReferenceJoinCount(r, s);
  // Dense build keys: every probe key < build_size matches exactly once.
  EXPECT_EQ(expected, p.probe_size);

  exec::Executor pool(2);

  NoPartitionJoinOptions npo_opts;
  npo_opts.pool = p.parallel ? &pool : nullptr;
  EXPECT_EQ(NoPartitionHashJoin(r, s, npo_opts).matches, expected);

  RadixJoinOptions radix_opts;
  radix_opts.radix_bits = p.radix_bits;
  radix_opts.num_passes = p.passes;
  radix_opts.pool = p.parallel ? &pool : nullptr;
  EXPECT_EQ(RadixHashJoin(r, s, radix_opts).matches, expected);

  EXPECT_EQ(SortMergeJoin(r, s).matches, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinEquivalence,
    ::testing::Values(
        JoinParam{16, 64, 0.0, 2, 1, false},
        JoinParam{1000, 4000, 0.0, 4, 1, false},
        JoinParam{1000, 4000, 0.75, 4, 1, false},
        JoinParam{1000, 4000, 0.99, 6, 2, false},
        JoinParam{10000, 40000, 0.0, 8, 1, false},
        JoinParam{10000, 40000, 0.0, 8, 2, false},
        JoinParam{10000, 40000, 0.5, 0, 1, false},
        JoinParam{10000, 40000, 0.0, 8, 1, true},
        JoinParam{10000, 40000, 0.9, 10, 2, true},
        JoinParam{1, 10, 0.0, 3, 1, false}));

/// Materialized pairs agree between NPO and radix (as multisets).
TEST(JoinMaterializeTest, PairsAgreeAcrossAlgorithms) {
  Relation r = workload::MakeBuildRelation(500, 21);
  Relation s = workload::MakeProbeRelation(2000, 500, 0.6, 22);

  NoPartitionJoinOptions npo_opts;
  npo_opts.materialize = true;
  auto npo = NoPartitionHashJoin(r, s, npo_opts);

  RadixJoinOptions radix_opts;
  radix_opts.radix_bits = 4;
  radix_opts.materialize = true;
  auto radix = RadixHashJoin(r, s, radix_opts);

  SortMergeJoinOptions sm_opts;
  sm_opts.materialize = true;
  auto sm = SortMergeJoin(r, s, sm_opts);

  auto to_set = [](const JoinResult& jr) {
    std::multiset<std::pair<uint64_t, uint64_t>> set;
    for (const auto& p : jr.pairs) set.insert({p.build_payload, p.probe_payload});
    return set;
  };
  EXPECT_EQ(to_set(npo), to_set(radix));
  EXPECT_EQ(to_set(npo), to_set(sm));
  EXPECT_EQ(npo.matches, npo.pairs.size());
}

}  // namespace
}  // namespace hwstar::ops
