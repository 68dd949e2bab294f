#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "hwstar/common/random.h"
#include "hwstar/kv/kv_store.h"
#include "hwstar/kv/tiered_store.h"
#include "hwstar/workload/ycsb_like.h"

namespace hwstar::kv {
namespace {

TEST(KvStoreTest, PutGetBasic) {
  KvStore store;
  store.Put(1, 10);
  store.Put(2, 20);
  auto r = store.Get(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 10u);
  EXPECT_EQ(store.Get(3).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.size(), 2u);
}

TEST(KvStoreTest, OverwriteKeepsSize) {
  KvStore store;
  store.Put(7, 1);
  store.Put(7, 2);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Get(7).value(), 2u);
}

TEST(KvStoreTest, DeleteBothIndexKinds) {
  for (IndexKind kind : {IndexKind::kArt, IndexKind::kBTree}) {
    KvOptions opts;
    opts.index = kind;
    opts.shards = 2;
    KvStore store(opts);
    for (uint64_t k = 0; k < 100; ++k) store.Put(k << 57, k);
    EXPECT_TRUE(store.Delete(3ull << 57));
    EXPECT_FALSE(store.Delete(3ull << 57));  // already gone
    EXPECT_FALSE(store.Delete(12345));       // never existed
    EXPECT_EQ(store.size(), 99u);
    EXPECT_EQ(store.Get(3ull << 57).status().code(), StatusCode::kNotFound);
    EXPECT_TRUE(store.Get(4ull << 57).ok());
    EXPECT_EQ(store.stats().deletes, 1u);  // only the successful erase
    // Deleted keys vanish from scans too (true erase, not a sentinel).
    std::vector<uint64_t> out;
    EXPECT_EQ(store.RangeScan(0, ~uint64_t{0}, &out), 99u);
  }
}

TEST(KvStoreTest, RangeScanEntriesOrderedPairsAcrossShards) {
  KvOptions opts;
  opts.shards = 4;
  KvStore store(opts);
  for (uint64_t i = 0; i < 64; ++i) store.Put(i << 58 | i, i + 1);
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  EXPECT_EQ(store.RangeScanEntries(0, ~uint64_t{0}, &entries), 64u);
  ASSERT_EQ(entries.size(), 64u);
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].first, entries[i].first);
  }
  for (const auto& [key, value] : entries) {
    EXPECT_EQ(store.Get(key).value(), value);
  }
}

TEST(KvStoreTest, StatsCount) {
  KvStore store;
  store.Put(1, 1);
  (void)store.Get(1);
  (void)store.Get(2);
  KvStats s = store.stats();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(KvStoreTest, RangeScanOrderedAcrossShards) {
  KvOptions opts;
  opts.shards = 4;
  KvStore store(opts);
  // Keys spread over the whole 64-bit space so every shard holds some.
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 64; ++i) {
    keys.push_back(i << 58 | i);  // top bits vary -> different shards
  }
  for (uint64_t k : keys) store.Put(k, k + 1);
  std::vector<uint64_t> out;
  const uint64_t n = store.RangeScan(0, ~uint64_t{0}, &out);
  EXPECT_EQ(n, keys.size());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(KvStoreTest, RangeScanEmptyAndInverted) {
  KvStore store;
  store.Put(100, 1);
  std::vector<uint64_t> out;
  EXPECT_EQ(store.RangeScan(10, 50, &out), 0u);
  EXPECT_EQ(store.RangeScan(50, 10, &out), 0u);
}

TEST(KvStoreTest, ConcurrentDisjointWriters) {
  KvOptions opts;
  opts.shards = 4;
  KvStore store(opts);
  std::vector<std::thread> writers;
  for (uint32_t t = 0; t < 4; ++t) {
    writers.emplace_back([&store, t] {
      // Each thread owns one key-range shard (top 2 bits).
      const uint64_t base = static_cast<uint64_t>(t) << 62;
      for (uint64_t i = 0; i < 10000; ++i) {
        store.Put(base | i, i);
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(store.size(), 40000u);
  EXPECT_EQ(store.Get((uint64_t{2} << 62) | 55).value(), 55u);
}

TEST(KvStoreTest, ConcurrentMixedReadersWriters) {
  KvOptions opts;
  opts.shards = 2;
  KvStore store(opts);
  for (uint64_t i = 0; i < 1000; ++i) store.Put(i, i);
  std::atomic<uint64_t> found{0};
  std::thread writer([&store] {
    for (uint64_t i = 1000; i < 2000; ++i) store.Put(i, i);
  });
  std::thread reader([&store, &found] {
    for (uint64_t i = 0; i < 1000; ++i) {
      found += store.Get(i).ok();
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(found.load(), 1000u);
  EXPECT_EQ(store.size(), 2000u);
}

TEST(KvStoreTest, LatchFreeReadersRaceWritersBothIndexKinds) {
  // Writers Put/Delete (serialized per shard by the latch) while readers
  // Get and MultiGet with no latch at all. Values are a pure function of
  // the key, so any hit returning the wrong value is a torn read.
  constexpr auto ValueOf = [](uint64_t key) { return key * 2654435761ULL + 1; };
  for (const IndexKind kind : {IndexKind::kArt, IndexKind::kBTree}) {
    KvOptions opts;
    opts.index = kind;
    opts.shards = 4;
    ASSERT_TRUE(opts.latch_free_reads);  // the default under test
    KvStore store(opts);
    constexpr uint64_t kKeys = 4096;
    const uint64_t stride = ~uint64_t{0} / kKeys;
    for (uint64_t i = 0; i < kKeys; ++i) {
      store.Put(i * stride, ValueOf(i * stride));
    }

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        Xoshiro256 rng(17 + w);
        while (!stop.load(std::memory_order_relaxed)) {
          const uint64_t key = rng.NextBounded(kKeys) * stride;
          if (rng.NextBounded(3) == 0) {
            store.Delete(key);
          } else {
            store.Put(key, ValueOf(key));
          }
        }
      });
    }
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&, t] {
        Xoshiro256 rng(90 + t);
        uint64_t keys[32];
        uint64_t values[32];
        bool found[32];
        for (int iter = 0; iter < 3000; ++iter) {
          const uint64_t key = rng.NextBounded(kKeys) * stride;
          auto got = store.Get(key);
          if (got.ok()) {
            EXPECT_EQ(got.value(), ValueOf(key));
          }
          if ((iter & 7) == 0) {
            for (auto& k : keys) k = rng.NextBounded(kKeys) * stride;
            std::sort(keys, keys + 32);  // shard-sorted: exercises runs
            store.MultiGet(keys, 32, values, found);
            for (int j = 0; j < 32; ++j) {
              if (found[j]) {
                EXPECT_EQ(values[j], ValueOf(keys[j]));
              } else {
                EXPECT_EQ(values[j], 0u);
              }
            }
          }
        }
      });
    }
    for (auto& r : readers) r.join();
    stop.store(true);
    for (auto& w : writers) w.join();

    const KvStats s = store.stats();
    EXPECT_GT(s.gets, 0u);
    EXPECT_GT(s.puts, kKeys);
  }
}

// Optimistic B-link-tree range scans racing latch-free point readers AND
// a writer — the mixed-mode contract from kv_store.h, checked under TSan
// via the sanitize label. Stable keys are never touched after load, so
// every scan must report each exactly once with the right value; volatile
// keys churn (put/delete) and may appear or not, but never with a torn
// value, never out of order, never duplicated.
TEST(KvStoreTest, OptimisticRangeScansRaceReadersAndWriter) {
  constexpr auto ValueOf = [](uint64_t key) { return key * 2654435761ULL + 1; };
  KvOptions opts;
  opts.index = IndexKind::kBTree;
  opts.shards = 2;
  ASSERT_TRUE(opts.latch_free_reads);
  KvStore store(opts);

  constexpr uint64_t kKeys = 2048;
  const uint64_t stride = ~uint64_t{0} / kKeys;
  // Even slots stable, odd slots volatile.
  for (uint64_t i = 0; i < kKeys; ++i) store.Put(i * stride, ValueOf(i * stride));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(31);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t slot = rng.NextBounded(kKeys / 2) * 2 + 1;
      const uint64_t key = slot * stride;
      if (rng.NextBounded(2) == 0) {
        store.Delete(key);
      } else {
        store.Put(key, ValueOf(key));
      }
    }
  });
  std::thread reader([&] {
    Xoshiro256 rng(47);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t key = rng.NextBounded(kKeys) * stride;
      auto got = store.Get(key);
      if (got.ok()) {
        EXPECT_EQ(got.value(), ValueOf(key));
      }
    }
  });

  std::vector<std::thread> scanners;
  for (int s = 0; s < 2; ++s) {
    scanners.emplace_back([&, s] {
      Xoshiro256 rng(63 + s);
      std::vector<std::pair<uint64_t, uint64_t>> entries;
      for (int iter = 0; iter < 300; ++iter) {
        // Random window, sometimes the whole keyspace.
        uint64_t lo = 0, hi = ~uint64_t{0};
        if (rng.NextBounded(2) == 0) {
          const uint64_t a = rng.NextBounded(kKeys) * stride;
          const uint64_t b = rng.NextBounded(kKeys) * stride;
          lo = std::min(a, b);
          hi = std::max(a, b);
        }
        entries.clear();
        store.RangeScanEntries(lo, hi, &entries);
        uint64_t prev = 0;
        bool first = true;
        uint64_t stable_seen = 0;
        for (const auto& [key, value] : entries) {
          EXPECT_GE(key, lo);
          EXPECT_LE(key, hi);
          if (!first) {
            EXPECT_GT(key, prev);  // ascending, no duplicates
          }
          first = false;
          prev = key;
          EXPECT_EQ(value, ValueOf(key));  // never torn
          if ((key / stride) % 2 == 0 && key == (key / stride) * stride) {
            ++stable_seen;
          }
        }
        // Every stable key inside the window, exactly once.
        uint64_t stable_expected = 0;
        for (uint64_t i = 0; i < kKeys; i += 2) {
          const uint64_t key = i * stride;
          if (key >= lo && key <= hi) ++stable_expected;
        }
        EXPECT_EQ(stable_seen, stable_expected)
            << "window [" << lo << ", " << hi << "]";
      }
    });
  }
  for (auto& t : scanners) t.join();
  stop.store(true);
  writer.join();
  reader.join();
}

/// Property: both index kinds and several shard counts agree with
/// std::map under a YCSB-shaped workload.
///
/// gtest names each instance after a byte dump of its KvParam, so the
/// struct has no padding: `name_tag` spells out the three bytes between
/// `index` and `shards`. Left as padding they were uninitialised, and the
/// test names changed from one build to the next; the tags pin the names
/// the sweep is registered under.
struct KvParam {
  IndexKind index;
  uint8_t name_tag[3];
  uint32_t shards;
};
static_assert(sizeof(KvParam) == 8, "KvParam must have no padding");

class KvEquivalence : public ::testing::TestWithParam<KvParam> {};

TEST_P(KvEquivalence, MatchesReferenceMap) {
  const KvParam p = GetParam();
  KvOptions opts;
  opts.index = p.index;
  opts.shards = p.shards;
  KvStore store(opts);
  std::map<uint64_t, uint64_t> ref;

  workload::YcsbConfig cfg;
  cfg.record_count = 4096;
  cfg.operation_count = 50000;
  cfg.read_fraction = 0.5;
  cfg.zipf_theta = 0.5;
  auto ops = workload::MakeYcsbWorkload(cfg);
  uint64_t version = 0;
  for (const auto& op : ops) {
    if (op.op == workload::YcsbOp::kUpdate) {
      store.Put(op.key, ++version);
      ref[op.key] = version;
    } else {
      auto got = store.Get(op.key);
      auto it = ref.find(op.key);
      ASSERT_EQ(got.ok(), it != ref.end());
      if (got.ok()) {
        EXPECT_EQ(got.value(), it->second);
      }
    }
  }
  EXPECT_EQ(store.size(), ref.size());
  // Final range scan agrees with the reference in-order walk.
  std::vector<uint64_t> got_values;
  store.RangeScan(0, cfg.record_count, &got_values);
  std::vector<uint64_t> want_values;
  for (const auto& [k, v] : ref) want_values.push_back(v);
  EXPECT_EQ(got_values, want_values);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KvEquivalence,
    ::testing::Values(KvParam{IndexKind::kArt, {0xda, 0x48, 0x00}, 1},
                      KvParam{IndexKind::kArt, {0xda, 0x55, 0x00}, 4},
                      KvParam{IndexKind::kBTree, {0x00, 0x00, 0x00}, 1},
                      KvParam{IndexKind::kBTree, {0x00, 0x00, 0x00}, 8}));

TEST(TieredStoreTest, LruKeepsHotWorkingSetResident) {
  TieredKvStore::Options opts;
  opts.memory_capacity = 100;
  opts.policy = TierPolicy::kLru;
  TieredKvStore store(opts);
  for (uint64_t k = 0; k < 1000; ++k) store.Load(k, k);
  // Repeatedly touch 50 keys: after warmup, all hits.
  uint64_t now = 0;
  for (int rep = 0; rep < 10; ++rep) {
    for (uint64_t k = 0; k < 50; ++k) {
      ASSERT_TRUE(store.Read(k, ++now).ok());
    }
  }
  EXPECT_GT(store.stats().hit_rate(), 0.85);
}

TEST(TieredStoreTest, ExpSmoothingClassifiesHotSet) {
  TieredKvStore::Options opts;
  opts.memory_capacity = 64;
  opts.policy = TierPolicy::kExpSmoothing;
  opts.es_sample_permille = 1000;  // full logging for determinism
  TieredKvStore store(opts);
  for (uint64_t k = 0; k < 1024; ++k) store.Load(k, k);
  // Phase 1: hammer keys 0..63, then reclassify.
  uint64_t now = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (uint64_t k = 0; k < 64; ++k) (void)store.Read(k, ++now);
  }
  store.Reclassify(now);
  EXPECT_EQ(store.resident_records(), 64u);
  // Phase 2: the same keys now hit memory.
  const auto before = store.stats();
  for (uint64_t k = 0; k < 64; ++k) (void)store.Read(k, ++now);
  const auto after = store.stats();
  EXPECT_EQ(after.memory_hits - before.memory_hits, 64u);
}

TEST(TieredStoreTest, ColdWritesWearFlash) {
  TieredKvStore::Options opts;
  opts.memory_capacity = 4;
  TieredKvStore store(opts);
  uint64_t now = 0;
  for (uint64_t k = 0; k < 1000; ++k) store.Write(k, k, ++now);
  EXPECT_GT(store.flash().writes(), 900u);
  EXPECT_GT(store.flash().WearFraction(10), 0.0);
  EXPECT_GT(store.stats().avg_latency_us(), 1.0);
}

TEST(TieredStoreTest, MissingKeyStillChargedAndNotFound) {
  TieredKvStore store;
  auto r = store.Read(42, 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(store.stats().accesses, 1u);
}

TEST(KvStoreTest, MultiGetMatchesGetIncludingMisses) {
  KvOptions opts;
  opts.shards = 8;
  KvStore store(opts);
  const uint64_t stride = ~uint64_t{0} / 1024;  // keys span all shards
  for (uint64_t i = 0; i < 1024; i += 2) store.Put(i * stride, i + 1);

  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 256; ++i) keys.push_back((i * 7 % 1024) * stride);
  // Unsorted and sorted (svc::GroupSelector's key order) must agree.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<uint64_t> values(keys.size());
    auto found = std::make_unique<bool[]>(keys.size());
    store.MultiGet(keys.data(), keys.size(), values.data(), found.get());
    for (size_t i = 0; i < keys.size(); ++i) {
      auto ref = store.Get(keys[i]);
      EXPECT_EQ(found[i], ref.ok()) << "key " << keys[i];
      if (ref.ok()) {
        EXPECT_EQ(values[i], ref.value());
      }
    }
    std::sort(keys.begin(), keys.end());
  }
}

TEST(KvStoreTest, RangeScanLimitIsPrefixOfFullScan) {
  KvStore store;
  for (uint64_t k = 0; k < 100; ++k) store.Put(k, k * 2);
  std::vector<uint64_t> full, limited;
  EXPECT_EQ(store.RangeScan(10, 59, &full), 50u);
  EXPECT_EQ(store.RangeScanLimit(10, 59, 7, &limited), 7u);
  ASSERT_EQ(limited.size(), 7u);
  for (size_t i = 0; i < limited.size(); ++i) EXPECT_EQ(limited[i], full[i]);
}

// Writers mutate counters under shard latches while a reader polls
// stats() lock-free: must be TSan-clean (counters are relaxed atomics)
// and add up once the writers join.
TEST(KvStoreTest, StatsReadableWhileConcurrentlyMutated) {
  KvOptions opts;
  opts.shards = 4;
  KvStore store(opts);
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 20000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Each shard counter is a single atomic, so successive relaxed loads
    // respect its modification order: snapshots are monotonic. (Cross
    // -counter invariants like gets >= hits do NOT hold mid-run under
    // relaxed ordering and are only checked after the writers join.)
    uint64_t last_gets = 0;
    while (!stop.load()) {
      const KvStats s = store.stats();
      EXPECT_GE(s.gets, last_gets);
      last_gets = s.gets;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&store, t] {
      const uint64_t stride = ~uint64_t{0} / (kThreads * kOpsPerThread);
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = (t * kOpsPerThread + i) * stride;
        store.Put(key, i);
        (void)store.Get(key);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  const KvStats s = store.stats();
  EXPECT_EQ(s.puts, kThreads * kOpsPerThread);
  EXPECT_EQ(s.gets, kThreads * kOpsPerThread);
  EXPECT_EQ(s.hits, kThreads * kOpsPerThread);
}

}  // namespace
}  // namespace hwstar::kv
