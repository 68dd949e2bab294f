// Bit-identity tests for the batched probe kernels (ops/probe_kernels.h):
// every FindBatch / ProbeBatch / MayContainBatch must produce exactly the
// results of the scalar loop it replaces, across batch sizes that straddle
// the group width, duplicate keys, hit/miss mixes, and both index kinds.
// The concurrency test at the bottom (label: sanitize) races
// LinearProbeTable::FindBatch against live InsertShared builders under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "hwstar/common/hash.h"
#include "hwstar/common/random.h"
#include "hwstar/kv/kv_store.h"
#include "hwstar/mem/aligned.h"
#include "hwstar/ops/art.h"
#include "hwstar/ops/bloom_filter.h"
#include "hwstar/ops/btree.h"
#include "hwstar/ops/hash_table.h"
#include "hwstar/ops/probe_kernels.h"
#include "hwstar/simd/backend.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::ops {
namespace {

// Batch sizes straddling every compiled group width {4, 8, 16, 32}:
// empty, one, G-1, G, G+1, and a large ragged size.
constexpr size_t kBatchSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                  31, 32, 33, 100, 1000};
// 0 = process default; 5 exercises rounding to a compiled size.
constexpr uint32_t kGroupSizes[] = {0, 4, 5, 8, 16, 32};

/// Probe keys with ~50% hit rate against `universe` (the inserted keys),
/// including duplicates within the batch.
std::vector<uint64_t> MakeProbeKeys(const std::vector<uint64_t>& universe,
                                    size_t n, Xoshiro256& rng) {
  std::vector<uint64_t> probes(n);
  for (size_t i = 0; i < n; ++i) {
    if (!universe.empty() && rng.NextBounded(2) == 0) {
      probes[i] = universe[rng.NextBounded(universe.size())];
      // Duplicate the previous probe occasionally.
      if (i > 0 && rng.NextBounded(8) == 0) probes[i] = probes[i - 1];
    } else {
      probes[i] = rng.Next() >> 1;  // top bit clear: never kEmpty
    }
  }
  return probes;
}

/// Checks index.FindBatch against a scalar index.Find loop for one probe
/// batch, every group size, and both the found-array and found=null forms.
template <typename Index>
void CheckFindBatchIdentity(const Index& index,
                            const std::vector<uint64_t>& probes) {
  const size_t n = probes.size();
  std::vector<uint64_t> want_values(n);
  std::unique_ptr<bool[]> want_found(new bool[n]);
  size_t want_hits = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    const bool hit = index.Find(probes[i], &v);
    want_values[i] = hit ? v : 0;
    want_found[i] = hit;
    want_hits += hit;
  }
  for (uint32_t group : kGroupSizes) {
    std::vector<uint64_t> values(n, ~uint64_t{0});
    std::unique_ptr<bool[]> found(new bool[n]);
    const size_t hits =
        index.FindBatch(probes.data(), n, values.data(), found.get(), group);
    EXPECT_EQ(hits, want_hits) << "group=" << group << " n=" << n;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(values[i], want_values[i])
          << "group=" << group << " n=" << n << " i=" << i;
      ASSERT_EQ(found[i], want_found[i])
          << "group=" << group << " n=" << n << " i=" << i;
    }
    // found == nullptr form: values and the hit count must be unchanged.
    std::vector<uint64_t> values2(n, ~uint64_t{0});
    const size_t hits2 =
        index.FindBatch(probes.data(), n, values2.data(), nullptr, group);
    EXPECT_EQ(hits2, want_hits);
    EXPECT_EQ(values2, values);
  }
}

// Keys of the large LinearProbeTable case: its arrays reach
// mem::kHugePageBytes, so they come from the huge-page allocation path
// (and its free).
constexpr size_t kHugeTableKeys = size_t{1} << 18;

TEST(ProbeBatchTest, LinearProbeFindBatchMatchesScalarFind) {
  Xoshiro256 rng(1);
  for (size_t count : {size_t{2000}, kHugeTableKeys}) {
    std::vector<uint64_t> keys(count);
    LinearProbeTable table(keys.size());
    for (auto& k : keys) {
      k = rng.Next() >> 1;
      table.Insert(k, k * 3 + 1);
    }
    if (count == kHugeTableKeys) {
      ASSERT_GE(table.MemoryBytes() / 2, mem::kHugePageBytes);
    }
    for (size_t n : kBatchSizes) {
      CheckFindBatchIdentity(table, MakeProbeKeys(keys, n, rng));
    }
  }
}

TEST(ProbeBatchTest, ChainedFindBatchMatchesScalarFind) {
  // Big enough to clear the AMAC footprint gate, so the AMAC ring itself runs
  // (small tables take the gated scalar walk, covered below).
  Xoshiro256 rng(2);
  std::vector<uint64_t> keys(1 << 17);
  ChainedTable table(keys.size());
  for (auto& k : keys) {
    k = rng.Next() >> 1;
    table.Insert(k, k ^ 0xabcdef);
  }
  ASSERT_GE(table.MemoryBytes(), tune::AmacMinTableBytes().Get());
  for (size_t n : kBatchSizes) {
    CheckFindBatchIdentity(table, MakeProbeKeys(keys, n, rng));
  }
}

TEST(ProbeBatchTest, ChainedFindBatchGatedScalarOnSmallTable) {
  Xoshiro256 rng(22);
  std::vector<uint64_t> keys(2000);
  ChainedTable table(keys.size());
  for (auto& k : keys) {
    k = rng.Next() >> 1;
    table.Insert(k, k ^ 0xabcdef);
  }
  ASSERT_LT(table.MemoryBytes(), tune::AmacMinTableBytes().Get());
  for (size_t n : kBatchSizes) {
    CheckFindBatchIdentity(table, MakeProbeKeys(keys, n, rng));
  }
}

TEST(ProbeBatchTest, ConcurrentFindBatchMatchesScalarFind) {
  Xoshiro256 rng(3);
  std::vector<uint64_t> keys(2000);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.Next() >> 1;
    values[i] = keys[i] + 99;
  }
  // Built by two threads at once, as the parallel join builds it.
  LinearProbeTable table(keys.size());
  const size_t half = keys.size() / 2;
  std::thread first(
      [&] { table.InsertShared(keys.data(), values.data(), half); });
  table.InsertShared(keys.data() + half, values.data() + half,
                     keys.size() - half);
  first.join();
  for (size_t n : kBatchSizes) {
    CheckFindBatchIdentity(table, MakeProbeKeys(keys, n, rng));
  }
}

TEST(ProbeBatchTest, ArtFindBatchMatchesScalarFind) {
  Xoshiro256 rng(4);
  std::vector<uint64_t> keys(2000);
  AdaptiveRadixTree art;
  for (auto& k : keys) {
    k = rng.Next();
    art.Insert(k, k * 7);
  }
  // Clustered keys exercise path compression / shared prefixes.
  for (uint64_t i = 0; i < 256; ++i) {
    const uint64_t k = 0x1122334455660000ULL + i;
    keys.push_back(k);
    art.Insert(k, k * 7);
  }
  for (size_t n : kBatchSizes) {
    CheckFindBatchIdentity(art, MakeProbeKeys(keys, n, rng));
  }
}

TEST(ProbeBatchTest, ArtFindBatchOnEmptyTree) {
  AdaptiveRadixTree art;
  const uint64_t probes[] = {0, 1, 42, ~uint64_t{0}};
  uint64_t values[4];
  bool found[4];
  EXPECT_EQ(art.FindBatch(probes, 4, values, found, 4), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(values[i], 0u);
    EXPECT_FALSE(found[i]);
  }
}

TEST(ProbeBatchTest, BtreeFindBatchMatchesScalarFind) {
  Xoshiro256 rng(5);
  for (uint32_t fanout : {8u, 32u}) {
    std::vector<uint64_t> keys(2000);
    BPlusTree tree(fanout);
    for (auto& k : keys) {
      k = rng.Next();
      tree.Insert(k, k + 17);
    }
    for (size_t n : kBatchSizes) {
      CheckFindBatchIdentity(tree, MakeProbeKeys(keys, n, rng));
    }
  }
}

TEST(ProbeBatchTest, LinearProbeBatchMatchesScalarProbeInOrder) {
  // LinearProbeTable supports duplicate keys; ProbeBatch must report every
  // match, in the exact order of the scalar loop (GP preserves order).
  Xoshiro256 rng(6);
  for (size_t count : {size_t{500}, kHugeTableKeys}) {
    std::vector<uint64_t> keys(count);
    LinearProbeTable table(keys.size() * 2);
    for (auto& k : keys) {
      k = rng.Next() >> 1;
      table.Insert(k, k);
      if (rng.NextBounded(4) == 0) table.Insert(k, k + 1);  // duplicate key
    }
    if (count == kHugeTableKeys) {
      ASSERT_GE(table.MemoryBytes() / 2, mem::kHugePageBytes);
    }
    const auto probes = MakeProbeKeys(keys, 777, rng);
    std::vector<std::pair<size_t, uint64_t>> want, got;
    uint64_t want_matches = 0;
    for (size_t i = 0; i < probes.size(); ++i) {
      want_matches += table.Probe(probes[i], [&](uint64_t v) {
        want.emplace_back(i, v);
      });
    }
    for (uint32_t group : kGroupSizes) {
      got.clear();
      const uint64_t matches = table.ProbeBatch(
          probes.data(), probes.size(),
          [&](size_t i, uint64_t v) { got.emplace_back(i, v); }, group);
      EXPECT_EQ(matches, want_matches)
          << "keys=" << count << " group=" << group;
      EXPECT_EQ(got, want) << "keys=" << count << " group=" << group;
    }
  }
}

TEST(ProbeBatchTest, LinearProbeChainsWrapPastTheLastSlot) {
  // A chain that runs past the last slot continues at slot 0. Keys are
  // picked by home slot so chains start in the last two slots and wrap
  // onto keys homed at slot 0; every probe path must report exactly the
  // reference multimap's matches, in insertion order, on every backend
  // the simd.backend knob allows.
  LinearProbeTable table(8);
  const uint64_t cap = table.capacity();
  ASSERT_EQ(cap, 16u);
  auto home = [](uint64_t key) { return Mix64(key) >> 60; };  // 16 slots
  auto key_homed_at = [&](uint64_t slot, uint64_t after) {
    uint64_t k = after + 1;
    while (home(k) != slot) ++k;
    return k;
  };
  const uint64_t a = key_homed_at(cap - 1, 0);
  const uint64_t d = key_homed_at(cap - 1, a);
  const uint64_t b = key_homed_at(cap - 2, 0);
  const uint64_t c = key_homed_at(0, 0);
  // Slots 14..15 then 0..4 fill: b a | a c a d c; slot 5 ends every chain.
  const std::pair<uint64_t, uint64_t> inserts[] = {
      {b, 1}, {a, 2}, {a, 3}, {c, 4}, {a, 5}, {d, 6}, {c, 7}};
  std::multimap<uint64_t, uint64_t> ref;
  for (const auto& [k, v] : inserts) {
    table.Insert(k, v);
    ref.emplace(k, v);  // equal keys keep insertion order
  }
  // Probes: every resident key and misses homed where the chains wrap.
  std::vector<uint64_t> probes;
  const uint64_t misses[] = {key_homed_at(cap - 1, d), key_homed_at(cap - 2, b),
                             key_homed_at(0, c)};
  for (int round = 0; round < 6; ++round) {
    for (uint64_t k : {a, b, c, d}) probes.push_back(k);
    for (uint64_t k : misses) probes.push_back(k);
  }
  std::vector<std::pair<size_t, uint64_t>> want;
  uint64_t want_matches = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto [lo, hi] = ref.equal_range(probes[i]);
    for (auto it = lo; it != hi; ++it) want.emplace_back(i, it->second);
    want_matches += ref.count(probes[i]);
  }

  const uint64_t saved_backend = tune::SimdBackend().Get();
  for (uint64_t be = 0;
       be <= static_cast<uint64_t>(simd::BestSupported()); ++be) {
    tune::SimdBackend().Set(be);
    SCOPED_TRACE(simd::BackendName(simd::ActiveBackend()));
    std::vector<std::pair<size_t, uint64_t>> got;
    for (size_t i = 0; i < probes.size(); ++i) {
      const uint32_t n = table.Probe(
          probes[i], [&](uint64_t v) { got.emplace_back(i, v); });
      EXPECT_EQ(n, ref.count(probes[i])) << "i=" << i;
      EXPECT_EQ(table.CountMatches(probes[i]), ref.count(probes[i]));
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(table.CountMatchesBatch(probes.data(), probes.size()),
              want_matches);
    for (uint32_t group : kGroupSizes) {
      got.clear();
      EXPECT_EQ(table.ProbeBatch(
                    probes.data(), probes.size(),
                    [&](size_t i, uint64_t v) { got.emplace_back(i, v); },
                    group),
                want_matches)
          << "group=" << group;
      EXPECT_EQ(got, want) << "group=" << group;

      std::vector<uint64_t> values(probes.size(), ~uint64_t{0});
      std::unique_ptr<bool[]> found(new bool[probes.size()]);
      size_t want_hits = 0;
      table.FindBatch(probes.data(), probes.size(), values.data(),
                      found.get(), group);
      for (size_t i = 0; i < probes.size(); ++i) {
        const auto it = ref.find(probes[i]);
        const bool hit = it != ref.end();
        want_hits += hit;
        EXPECT_EQ(found[i], hit) << "group=" << group << " i=" << i;
        EXPECT_EQ(values[i], hit ? it->second : 0)
            << "group=" << group << " i=" << i;
      }
      EXPECT_EQ(table.FindBatch(probes.data(), probes.size(), values.data(),
                                nullptr, group),
                want_hits)
          << "group=" << group;
    }
  }
  tune::SimdBackend().Set(saved_backend);
}

TEST(ProbeBatchTest, ChainedProbeBatchMatchesScalarProbeAsMultiset) {
  // AMAC completes keys out of order, so compare (i, value) multisets.
  // Sized past the AMAC footprint gate so the ring actually runs.
  Xoshiro256 rng(7);
  std::vector<uint64_t> keys(1 << 17);
  ChainedTable table(keys.size());
  for (auto& k : keys) {
    k = rng.Next() >> 1;
    table.Insert(k, k);
    if (rng.NextBounded(4) == 0) table.Insert(k, k + 1);
  }
  ASSERT_GE(table.MemoryBytes(), tune::AmacMinTableBytes().Get());
  const auto probes = MakeProbeKeys(keys, 777, rng);
  std::vector<std::pair<size_t, uint64_t>> want, got;
  uint64_t want_matches = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    want_matches += table.Probe(probes[i], [&](uint64_t v) {
      want.emplace_back(i, v);
    });
  }
  std::sort(want.begin(), want.end());
  for (uint32_t group : kGroupSizes) {
    got.clear();
    const uint64_t matches = table.ProbeBatch(
        probes.data(), probes.size(),
        [&](size_t i, uint64_t v) { got.emplace_back(i, v); }, group);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(matches, want_matches) << "group=" << group;
    EXPECT_EQ(got, want) << "group=" << group;
  }
}

TEST(ProbeBatchTest, BloomMayContainBatchMatchesScalar) {
  Xoshiro256 rng(8);
  std::vector<uint64_t> keys(4000);
  BloomFilter standard(keys.size());
  BlockedBloomFilter blocked(keys.size());
  for (auto& k : keys) {
    k = rng.Next();
    standard.Add(k);
    blocked.Add(k);
  }
  for (size_t n : kBatchSizes) {
    const auto probes = MakeProbeKeys(keys, n, rng);
    for (uint32_t group : kGroupSizes) {
      std::unique_ptr<bool[]> out(new bool[n + 1]);
      standard.MayContainBatch(probes.data(), n, out.get(), group);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], standard.MayContain(probes[i]))
            << "standard group=" << group << " n=" << n << " i=" << i;
      }
      blocked.MayContainBatch(probes.data(), n, out.get(), group);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], blocked.MayContain(probes[i]))
            << "blocked group=" << group << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ProbeBatchTest, KvStoreMultiGetMatchesScalarGet) {
  Xoshiro256 rng(9);
  for (kv::IndexKind kind : {kv::IndexKind::kArt, kv::IndexKind::kBTree}) {
    kv::KvOptions opts;
    opts.index = kind;
    opts.shards = 8;
    kv::KvStore store(opts);
    std::vector<uint64_t> keys(3000);
    for (auto& k : keys) {
      k = rng.Next();  // uniform: runs span all shards
      store.Put(k, k ^ 0x5a5a5a5a);
    }
    for (size_t n : kBatchSizes) {
      auto probes = MakeProbeKeys(keys, n, rng);
      // Sorted probes exercise the long same-shard-run path svc get
      // groups produce; unsorted ones exercise shard switching.
      for (bool sorted : {false, true}) {
        if (sorted) std::sort(probes.begin(), probes.end());
        std::vector<uint64_t> values(n, ~uint64_t{0});
        std::unique_ptr<bool[]> found(new bool[n]);
        store.MultiGet(probes.data(), n, values.data(), found.get());
        for (size_t i = 0; i < n; ++i) {
          auto r = store.Get(probes[i]);
          ASSERT_EQ(found[i], r.ok()) << "n=" << n << " i=" << i;
          ASSERT_EQ(values[i], r.ok() ? r.value() : 0) << "n=" << n;
        }
        // found == nullptr form.
        std::vector<uint64_t> values2(n, ~uint64_t{0});
        store.MultiGet(probes.data(), n, values2.data(), nullptr);
        EXPECT_EQ(values2, values);
      }
    }
  }
}

TEST(ProbeKernelsTest, DefaultGroupSizeRoundTripsAndClamps) {
  tune::Tunable& group = tune::ProbeGroupSize();
  const uint64_t before = group.Get();
  group.Set(8);
  EXPECT_EQ(group.Get(), 8u);
  // The registry's central clamp: power of two in [4, 32] (the compiled
  // kernel widths), whatever path the value arrives by.
  group.Set(0);  // clamped up to 4
  EXPECT_EQ(group.Get(), 4u);
  group.Set(1000);  // clamped down to 32
  EXPECT_EQ(group.Get(), 32u);
  group.Set(5);  // rounded up to the next power of two
  EXPECT_EQ(group.Get(), 8u);
  EXPECT_TRUE(tune::Registry::Global().Set("probe.group_size", 16));
  EXPECT_EQ(group.Get(), 16u);
  group.Set(before);
}

TEST(ProbeKernelsTest, WithProbeGroupRoundsToCompiledSizes) {
  auto width = [](uint32_t requested) {
    return WithProbeGroup(requested, [](auto g) -> uint32_t {
      return decltype(g)::value;
    });
  };
  EXPECT_EQ(width(1), 4u);
  EXPECT_EQ(width(4), 4u);
  EXPECT_EQ(width(5), 8u);
  EXPECT_EQ(width(8), 8u);
  EXPECT_EQ(width(16), 16u);
  EXPECT_EQ(width(17), 32u);
  EXPECT_EQ(width(64), 32u);
  EXPECT_EQ(width(0), 16u);  // the process default (16 unless retuned)
}

// TSan target (label: sanitize): FindBatch reading while two InsertShared
// builders are still publishing entries. The scalar safety contract must
// carry over to the prefetch-pipelined kernel: a concurrent probe may miss
// a racing key or see its value as still 0, but never tears, crashes, or
// reports a value other than the published one.
TEST(ProbeBatchConcurrencyTest, FindBatchRacesConcurrentInserts) {
  constexpr size_t kKeys = 4096;
  Xoshiro256 rng(10);
  std::vector<uint64_t> keys(kKeys);
  for (auto& k : keys) k = rng.Next() >> 1;

  std::vector<uint64_t> inserted(kKeys);
  for (size_t i = 0; i < kKeys; ++i) inserted[i] = keys[i] + 1;

  // Two shared builders, each inserting every other run of 16 keys, so
  // their claims interleave across the table while the reader probes.
  LinearProbeTable table(kKeys);
  std::atomic<bool> go{false};
  constexpr size_t kRun = 16;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = w * kRun; i < kKeys; i += 2 * kRun) {
        table.InsertShared(keys.data() + i, inserted.data() + i, kRun);
      }
    });
  }

  std::vector<uint64_t> values(kKeys);
  std::unique_ptr<bool[]> found(new bool[kKeys]);
  go.store(true, std::memory_order_release);
  for (int round = 0; round < 64; ++round) {
    const size_t hits =
        table.FindBatch(keys.data(), kKeys, values.data(), found.get());
    size_t counted = 0;
    for (size_t i = 0; i < kKeys; ++i) {
      if (found[i]) {
        // Key published; value is either published too or still the
        // zero-initialized slot (the documented racing-read outcome).
        EXPECT_TRUE(values[i] == keys[i] + 1 || values[i] == 0)
            << "i=" << i << " value=" << values[i];
        ++counted;
      } else {
        EXPECT_EQ(values[i], 0u);
      }
    }
    EXPECT_EQ(counted, hits);
  }
  for (auto& w : writers) w.join();

  // Deterministic once the writers are joined: every key present, every
  // value published.
  const size_t hits =
      table.FindBatch(keys.data(), kKeys, values.data(), found.get());
  EXPECT_EQ(hits, kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    EXPECT_TRUE(found[i]);
    EXPECT_EQ(values[i], keys[i] + 1);
  }
}

}  // namespace
}  // namespace hwstar::ops
