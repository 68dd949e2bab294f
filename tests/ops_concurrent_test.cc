#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <utility>

#include "hwstar/exec/executor.h"
#include "hwstar/ops/hash_table.h"
#include "hwstar/ops/join_nop.h"
#include "hwstar/workload/distributions.h"

namespace hwstar::ops {
namespace {

// Neither build path may take the last empty slot: a probe for an absent
// key stops only at one.
TEST(LinearProbeDeathTest, BothBuildsKeepOneSlotEmpty) {
  LinearProbeTable serial(4);
  ASSERT_EQ(serial.capacity(), 8u);
  for (uint64_t k = 1; k < 8; ++k) serial.Insert(k, k);
  uint64_t v = 0;
  EXPECT_FALSE(serial.Find(100, &v));
  EXPECT_DEATH(serial.Insert(8, 8), "HWSTAR_CHECK failed");

  LinearProbeTable shared(4);
  const uint64_t keys[] = {1, 2, 3, 4, 5, 6, 7, 8};
  shared.InsertShared(keys, keys, 7);
  EXPECT_FALSE(shared.Find(100, &v));
  EXPECT_DEATH(shared.InsertShared(keys + 7, keys + 7, 1),
               "HWSTAR_CHECK failed");
}

// LinearProbeTable::InsertShared: the CAS-claimed build many threads run
// at once (the parallel no-partitioning join's shared table).
TEST(InsertSharedTest, SerialInsertFind) {
  LinearProbeTable table(100);
  const uint64_t keys[] = {5, 7};
  const uint64_t values[] = {50, 70};
  table.InsertShared(keys, values, 2);
  uint64_t v = 0;
  EXPECT_TRUE(table.Find(5, &v));
  EXPECT_EQ(v, 50u);
  EXPECT_FALSE(table.Find(6, &v));
  EXPECT_EQ(table.CountMatches(7), 1u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(InsertSharedTest, DuplicatesCounted) {
  LinearProbeTable table(100);
  const uint64_t keys[] = {9, 9, 9, 9, 9};
  const uint64_t values[] = {0, 1, 2, 3, 4};
  table.InsertShared(keys, values, 5);
  EXPECT_EQ(table.CountMatches(9), 5u);
  std::vector<uint64_t> seen;
  EXPECT_EQ(table.Probe(9, [&](uint64_t v) { seen.push_back(v); }), 5u);
  EXPECT_EQ(seen.size(), 5u);
}

TEST(InsertSharedTest, ConcurrentBuildFindsEverything) {
  const uint64_t n = 200000;
  LinearProbeTable table(n);
  const uint32_t kThreads = 4;
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&table, t, n] {
      for (uint64_t k = t; k < n; k += kThreads) {
        const uint64_t value = k * 2;
        table.InsertShared(&k, &value, 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(table.size(), n);
  uint64_t v = 0;
  for (uint64_t k = 0; k < n; k += 997) {
    ASSERT_TRUE(table.Find(k, &v)) << k;
    EXPECT_EQ(v, k * 2);
  }
  EXPECT_FALSE(table.Find(n + 5, &v));
}

TEST(InsertSharedTest, ConcurrentDuplicateKeys) {
  // All threads hammer the same key: every insert must land.
  LinearProbeTable table(4000);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < 4; ++t) {
    workers.emplace_back([&table] {
      const uint64_t key = 42;
      const uint64_t value = 1;
      for (int i = 0; i < 500; ++i) table.InsertShared(&key, &value, 1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(table.CountMatches(42), 2000u);
  EXPECT_EQ(table.size(), 2000u);
}

TEST(ParallelBuildJoinTest, MatchesSerialJoin) {
  auto build = workload::MakeBuildRelation(50000, 7);
  auto probe = workload::MakeProbeRelation(200000, 50000, 0.5, 8);
  exec::Executor pool(2);
  NoPartitionJoinOptions serial;
  NoPartitionJoinOptions parallel;
  parallel.pool = &pool;
  EXPECT_EQ(NoPartitionHashJoin(build, probe, serial).matches,
            NoPartitionHashJoin(build, probe, parallel).matches);
}

TEST(ParallelBuildJoinTest, MaterializedPairsMatch) {
  auto build = workload::MakeBuildRelation(1000, 9);
  auto probe = workload::MakeProbeRelation(5000, 1000, 0.0, 10);
  exec::Executor pool(2);
  NoPartitionJoinOptions serial;
  serial.materialize = true;
  NoPartitionJoinOptions parallel = serial;
  parallel.pool = &pool;
  auto a = NoPartitionHashJoin(build, probe, serial);
  auto b = NoPartitionHashJoin(build, probe, parallel);
  EXPECT_EQ(a.matches, b.matches);
  // The parallel probe emits pairs in morsel order: compare as multisets.
  auto to_set = [](const JoinResult& jr) {
    std::multiset<std::pair<uint64_t, uint64_t>> set;
    for (const auto& p : jr.pairs) {
      set.insert({p.build_payload, p.probe_payload});
    }
    return set;
  };
  EXPECT_EQ(to_set(a), to_set(b));
  EXPECT_EQ(a.matches, a.pairs.size());
}

/// CountMatchesBatch must equal the scalar loop at every prefetch
/// distance.
class PrefetchDistance : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PrefetchDistance, BatchEqualsScalar) {
  const uint32_t distance = GetParam();
  auto build = workload::MakeBuildRelation(20000, 11);
  LinearProbeTable table(build.size());
  for (uint64_t i = 0; i < build.size(); ++i) {
    table.Insert(build.keys[i], build.payloads[i]);
  }
  auto probes = workload::UniformKeys(50000, 40000, 12);  // ~50% hits
  uint64_t scalar = 0;
  for (uint64_t k : probes) scalar += table.CountMatches(k);
  EXPECT_EQ(table.CountMatchesBatch(probes.data(), probes.size(), distance),
            scalar);
}

INSTANTIATE_TEST_SUITE_P(Distances, PrefetchDistance,
                         ::testing::Values(0u, 1u, 4u, 8u, 32u, 100000u));

}  // namespace
}  // namespace hwstar::ops
