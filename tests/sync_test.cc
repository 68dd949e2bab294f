#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "hwstar/common/random.h"
#include "hwstar/kv/kv_store.h"
#include "hwstar/ops/art.h"
#include "hwstar/ops/btree.h"
#include "hwstar/ops/hash_table.h"
#include "hwstar/sync/epoch.h"
#include "hwstar/sync/optlock.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::sync {
namespace {

// ---------------------------------------------------------------------------
// OptLock protocol.
// ---------------------------------------------------------------------------

TEST(OptLockTest, FreshLockReadsCleanly) {
  OptLock lock;
  bool restart = false;
  const uint64_t v = lock.ReadLockOrRestart(&restart);
  EXPECT_FALSE(restart);
  EXPECT_FALSE(OptLock::IsLocked(v));
  EXPECT_FALSE(OptLock::IsObsolete(v));
  lock.CheckOrRestart(v, &restart);
  EXPECT_FALSE(restart);
}

TEST(OptLockTest, ReadRestartsWhileWriterHoldsLock) {
  OptLock lock;
  lock.WriteLock();
  bool restart = false;
  lock.ReadLockOrRestart(&restart);
  EXPECT_TRUE(restart);
  lock.WriteUnlock();
  restart = false;
  lock.ReadLockOrRestart(&restart);
  EXPECT_FALSE(restart);
}

TEST(OptLockTest, CheckDetectsInterleavedWriter) {
  OptLock lock;
  bool restart = false;
  const uint64_t v = lock.ReadLockOrRestart(&restart);
  lock.WriteLock();
  lock.WriteUnlock();
  lock.CheckOrRestart(v, &restart);
  EXPECT_TRUE(restart);
}

TEST(OptLockTest, WriteUnlockBumpsVersion) {
  OptLock lock;
  const uint64_t before = lock.Version();
  lock.WriteLock();
  EXPECT_TRUE(OptLock::IsLocked(lock.Version()));
  lock.WriteUnlock();
  const uint64_t after = lock.Version();
  EXPECT_FALSE(OptLock::IsLocked(after));
  EXPECT_NE(before, after);
}

TEST(OptLockTest, UpgradeSucceedsOnCleanVersionOnly) {
  OptLock lock;
  bool restart = false;
  const uint64_t v = lock.ReadLockOrRestart(&restart);
  ASSERT_FALSE(restart);
  EXPECT_TRUE(lock.UpgradeToWriteLock(v, &restart));
  EXPECT_FALSE(restart);
  lock.WriteUnlock();

  // A stale version must not upgrade.
  restart = false;
  EXPECT_FALSE(lock.UpgradeToWriteLock(v, &restart));
  EXPECT_TRUE(restart);
}

TEST(OptLockTest, ObsoleteForcesRestartForever) {
  OptLock lock;
  lock.WriteLock();
  lock.WriteUnlockObsolete();
  bool restart = false;
  const uint64_t v = lock.ReadLockOrRestart(&restart);
  EXPECT_TRUE(restart);
  EXPECT_TRUE(OptLock::IsObsolete(v));
  EXPECT_FALSE(OptLock::IsLocked(v));
}

// ---------------------------------------------------------------------------
// Epoch-based reclamation.
// ---------------------------------------------------------------------------

/// Retirable object whose destruction is observable.
struct Flagged {
  explicit Flagged(std::atomic<uint64_t>* c) : counter(c) {}
  ~Flagged() { counter->fetch_add(1); }
  std::atomic<uint64_t>* counter;
};

TEST(EpochTest, GuardPinsAndUnpins) {
  EpochManager mgr;
  EXPECT_FALSE(mgr.IsPinned());
  {
    EpochManager::Guard guard(mgr);
    EXPECT_TRUE(mgr.IsPinned());
    {
      EpochManager::Guard nested(mgr);  // nesting must be safe
      EXPECT_TRUE(mgr.IsPinned());
    }
    EXPECT_TRUE(mgr.IsPinned());
  }
  EXPECT_FALSE(mgr.IsPinned());
}

TEST(EpochTest, RetireDefersUntilQuiescent) {
  EpochManager mgr;
  std::atomic<uint64_t> freed{0};
  mgr.RetireObject(new Flagged(&freed));
  // Quiescent (nothing pinned): a full reclaim frees it.
  mgr.ReclaimAll();
  EXPECT_EQ(freed.load(), 1u);
  const auto stats = mgr.stats();
  EXPECT_EQ(stats.retired_outstanding, 0u);
  EXPECT_GE(stats.freed_total, 1u);
}

TEST(EpochTest, PinnedReaderBlocksReclamation) {
  EpochManager mgr;
  std::atomic<uint64_t> freed{0};
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EpochManager::Guard guard(mgr);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  // The reader pinned an epoch <= the retire epoch, so nothing the
  // reader might still see may be freed.
  mgr.RetireObject(new Flagged(&freed));
  mgr.ReclaimAll();
  EXPECT_EQ(freed.load(), 0u);
  EXPECT_GE(mgr.stats().retired_outstanding, 1u);

  release.store(true);
  reader.join();
  mgr.ReclaimAll();
  EXPECT_EQ(freed.load(), 1u);
  EXPECT_EQ(mgr.stats().retired_outstanding, 0u);
}

TEST(EpochTest, StatsTrackBytesAndHighWaterMark) {
  EpochManager mgr;
  std::atomic<uint64_t> freed{0};
  for (int i = 0; i < 4; ++i) {
    mgr.Retire(
        new Flagged(&freed),
        [](void* p) {
          Flagged* f = static_cast<Flagged*>(p);
          delete f;
        },
        /*bytes=*/1000);
  }
  const auto mid = mgr.stats();
  EXPECT_GE(mid.retired_bytes, 4000u);
  EXPECT_GE(mid.retired_bytes_hwm, 4000u);
  mgr.ReclaimAll();
  EXPECT_EQ(freed.load(), 4u);
  const auto end = mgr.stats();
  EXPECT_EQ(end.retired_bytes, 0u);
  EXPECT_GE(end.retired_bytes_hwm, 4000u);  // HWM survives the frees
}

TEST(EpochTest, ThreadExitFlushesRetireesToOrphans) {
  EpochManager mgr;
  std::atomic<uint64_t> freed{0};
  std::thread t([&] {
    // Retire from a short-lived thread and exit without reclaiming; the
    // thread-exit hook must hand the list to the orphan pool.
    for (int i = 0; i < 10; ++i) mgr.RetireObject(new Flagged(&freed));
  });
  t.join();
  mgr.ReclaimAll();
  EXPECT_EQ(freed.load(), 10u);
  EXPECT_EQ(mgr.stats().retired_outstanding, 0u);
}

TEST(EpochTest, AdvanceSucceedsWithCurrentEpochPin) {
  EpochManager mgr;
  const uint64_t e0 = mgr.epoch();
  EXPECT_TRUE(mgr.TryAdvance());
  EXPECT_EQ(mgr.epoch(), e0 + 1);

  // A pin in the *current* epoch does not block the advance; the pinned
  // thread has by definition been observed there.
  EpochManager::Guard guard(mgr);
  EXPECT_TRUE(mgr.TryAdvance());
}

// Retire torture: writers retire continuously while every thread also
// pins; the retire lists must stay bounded (sweeps happen inline) and a
// final reclaim must free every last object. Run under ASan this is the
// use-after-free canary for the whole epoch machinery.
TEST(EpochTortureTest, BoundedRetireListsAndFullReclaim) {
  tune::EpochAdvanceInterval().Set(8);
  tune::EpochRetireBatch().Set(32);

  {
    EpochManager mgr;
    std::atomic<uint64_t> freed{0};
    constexpr int kThreads = 4;
    constexpr int kIters = 20000;
    std::atomic<uint64_t> max_outstanding{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kIters; ++i) {
          EpochManager::Guard guard(mgr);
          mgr.RetireObject(new Flagged(&freed));
          if ((i & 1023) == 0) {
            const uint64_t out = mgr.stats().retired_outstanding;
            uint64_t seen = max_outstanding.load();
            while (out > seen &&
                   !max_outstanding.compare_exchange_weak(seen, out)) {
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    mgr.ReclaimAll();
    EXPECT_EQ(freed.load(), uint64_t{kThreads} * kIters);
    EXPECT_EQ(mgr.stats().retired_outstanding, 0u);
    // Growth must be bounded by the sweep/advance cadence, nowhere near
    // the kThreads * kIters an unbounded list would reach.
    EXPECT_LT(max_outstanding.load(), 20000u);
    EXPECT_GT(mgr.stats().advances, 0u);
  }

  tune::Registry::Global().ResetAll();
}

// Use-after-retire canary on a raw published pointer: readers chase an
// atomic pointer under a pin while the writer swaps and retires it. The
// deleter scribbles, so a reclaim racing a pinned reader shows up as a
// torn invariant (and as a UAF under ASan).
TEST(EpochTortureTest, PublishedPointerSwapNeverTears) {
  struct Pair {
    std::atomic<uint64_t> a;
    std::atomic<uint64_t> b;  // invariant: b == ~a
  };
  EpochManager mgr;
  std::atomic<Pair*> shared{new Pair{{1}, {~uint64_t{1}}}};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 30000; ++i) {
        EpochManager::Guard guard(mgr);
        Pair* p = shared.load(std::memory_order_acquire);
        const uint64_t a = p->a.load(std::memory_order_relaxed);
        const uint64_t b = p->b.load(std::memory_order_relaxed);
        EXPECT_EQ(b, ~a);
      }
    });
  }
  std::thread writer([&] {
    uint64_t next = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      Pair* fresh = new Pair{{next}, {~next}};
      Pair* old = shared.exchange(fresh, std::memory_order_acq_rel);
      mgr.Retire(
          old,
          [](void* p) {
            Pair* pair = static_cast<Pair*>(p);
            pair->a.store(0xdeadbeef, std::memory_order_relaxed);
            pair->b.store(0xdeadbeef, std::memory_order_relaxed);
            delete pair;
          },
          sizeof(Pair));
      ++next;
    }
  });
  for (auto& r : readers) r.join();
  stop.store(true);
  writer.join();
  delete shared.load();
  mgr.ReclaimAll();
  EXPECT_EQ(mgr.stats().retired_outstanding, 0u);
}

// ---------------------------------------------------------------------------
// Index stress: latch-free reads against a live writer.
// ---------------------------------------------------------------------------

constexpr uint64_t kValueMagic = 0x5bd1e995u;
uint64_t StressKey(uint64_t i) {
  // Mix dense low keys with sparse high ones so ART sees deep prefixes,
  // all four node kinds, and collapse-on-erase paths.
  uint64_t s = i;
  return (i & 1) ? i / 2 : SplitMix64(s);
}
uint64_t StressValue(uint64_t key) { return key ^ kValueMagic; }

TEST(ArtConcurrencyTest, FindBatchRacesWriterWithoutTearing) {
  EpochManager mgr;
  ops::AdaptiveRadixTree art;
  art.SetEpochManager(&mgr);
  constexpr uint64_t kKeys = 2048;
  for (uint64_t i = 0; i < kKeys; ++i) {
    art.Insert(StressKey(i), StressValue(StressKey(i)));
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // The single writer (KvStore's latch serializes writers; here there
    // is just one): toggle keys in and out, forcing node growth, prefix
    // splits, collapses, and epoch retirements under the readers' feet.
    Xoshiro256 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t key = StressKey(rng.NextBounded(kKeys));
      if (rng.NextBounded(2) == 0) {
        art.Erase(key);
      } else {
        art.Insert(key, StressValue(key));
      }
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      uint64_t batch[64];
      uint64_t values[64];
      bool found[64];
      for (int iter = 0; iter < 4000; ++iter) {
        {
          EpochManager::Guard guard(mgr);
          const uint64_t key = StressKey(rng.NextBounded(kKeys));
          uint64_t v = 0;
          if (art.Find(key, &v)) {
            EXPECT_EQ(v, StressValue(key));  // never a torn/stale value
          }
        }
        if ((iter & 15) == 0) {
          for (int j = 0; j < 64; ++j) {
            batch[j] = StressKey(rng.NextBounded(kKeys));
          }
          EpochManager::Guard guard(mgr);
          art.FindBatch(batch, 64, values, found);
          for (int j = 0; j < 64; ++j) {
            if (found[j]) {
              EXPECT_EQ(values[j], StressValue(batch[j]));
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
  writer.join();
  mgr.ReclaimAll();
  EXPECT_EQ(mgr.stats().retired_outstanding, 0u);
}

// A prefix split (Insert) and a collapse (Erase) change which depth a
// node's compressed path starts at. A reader that loads a node's pointer
// before such a change and its version after it must not check the new
// prefix at the old depth: that reads as a validated miss of a key that
// never left the tree. The writer splits and re-merges the root's
// 7-byte prefix over and over while readers look up the resident keys.
TEST(ArtConcurrencyTest, PrefixChangesNeverHideAKey) {
  EpochManager mgr;
  ops::AdaptiveRadixTree art;
  art.SetEpochManager(&mgr);
  constexpr uint64_t kBase = 0x1122334455667700ULL;
  constexpr uint64_t kResident[] = {kBase, kBase | 1, kBase | 2, kBase | 3};
  for (uint64_t key : kResident) art.Insert(key, StressValue(key));
  // Diverges from the residents at byte 1: inserting it splits the root
  // prefix after byte 0, erasing it merges the prefix back.
  constexpr uint64_t kSplitter = 0x11ff000000000000ULL;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> misses{0};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      art.Insert(kSplitter, StressValue(kSplitter));
      art.Erase(kSplitter);
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      constexpr size_t kBatch = 16;
      uint64_t batch[kBatch];
      uint64_t values[kBatch];
      bool found[kBatch];
      for (size_t j = 0; j < kBatch; ++j) batch[j] = kResident[j % 4];
      while (misses.load(std::memory_order_relaxed) == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        for (int iter = 0; iter < 256; ++iter) {
          EpochManager::Guard guard(mgr);
          for (uint64_t key : kResident) {
            uint64_t v = 0;
            if (!art.Find(key, &v) || v != StressValue(key)) {
              misses.fetch_add(1, std::memory_order_relaxed);
            }
          }
          art.FindBatch(batch, kBatch, values, found);
          for (size_t j = 0; j < kBatch; ++j) {
            if (!found[j] || values[j] != StressValue(batch[j])) {
              misses.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(misses.load(), 0u);
  mgr.ReclaimAll();
  EXPECT_EQ(mgr.stats().retired_outstanding, 0u);
}

TEST(BtreeConcurrencyTest, FindBatchRacesWriterWithoutTearing) {
  ops::BPlusTree tree(/*fanout=*/16);  // small fanout -> frequent splits
  constexpr uint64_t kKeys = 2048;
  for (uint64_t i = 0; i < kKeys; ++i) {
    tree.Insert(StressKey(i), StressValue(StressKey(i)));
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t key = StressKey(rng.NextBounded(kKeys));
      if (rng.NextBounded(3) == 0) {
        tree.Erase(key);
      } else {
        tree.Insert(key, StressValue(key));
      }
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      uint64_t batch[64];
      uint64_t values[64];
      bool found[64];
      for (int iter = 0; iter < 4000; ++iter) {
        const uint64_t key = StressKey(rng.NextBounded(kKeys));
        uint64_t v = 0;
        if (tree.Find(key, &v)) {
          EXPECT_EQ(v, StressValue(key));
        }
        if ((iter & 15) == 0) {
          for (int j = 0; j < 64; ++j) {
            batch[j] = StressKey(rng.NextBounded(kKeys));
          }
          tree.FindBatch(batch, 64, values, found);
          for (int j = 0; j < 64; ++j) {
            if (found[j]) {
              EXPECT_EQ(values[j], StressValue(batch[j]));
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
  writer.join();
}

TEST(HashTableConcurrencyTest, LinearProbeReadersRaceTheBuilder) {
  constexpr uint64_t kN = 50000;
  ops::LinearProbeTable table(kN);
  std::atomic<uint64_t> published{0};
  std::thread writer([&] {
    for (uint64_t k = 1; k <= kN; ++k) {
      table.Insert(k, StressValue(k));
      published.store(k, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(200 + t);
      uint64_t batch[32];
      uint64_t values[32];
      bool found[32];
      for (int iter = 0; iter < 4000; ++iter) {
        const uint64_t hi = published.load(std::memory_order_acquire);
        const uint64_t key = 1 + rng.NextBounded(kN);
        uint64_t v = 0;
        if (table.Find(key, &v)) {
          EXPECT_EQ(v, StressValue(key));
        } else {
          // Only not-yet-published keys may miss.
          EXPECT_GT(key, hi);
        }
        if ((iter & 15) == 0) {
          for (int j = 0; j < 32; ++j) batch[j] = 1 + rng.NextBounded(kN);
          table.FindBatch(batch, 32, values, found);
          for (int j = 0; j < 32; ++j) {
            if (found[j]) {
              EXPECT_EQ(values[j], StressValue(batch[j]));
            }
          }
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  writer.join();
  EXPECT_EQ(table.size(), kN);
}

TEST(HashTableConcurrencyTest, ChainedReadersSurviveBlockGrowth) {
  EpochManager mgr;
  // Tiny bucket count: the node block starts small and must grow many
  // times while readers are mid-chain, exercising Resnapshot and the
  // epoch retirement of replaced blocks.
  ops::ChainedTable table(/*expected_buckets=*/8);
  table.SetEpochManager(&mgr);
  constexpr uint64_t kN = 20000;
  std::atomic<uint64_t> published{0};
  std::thread writer([&] {
    for (uint64_t k = 1; k <= kN; ++k) {
      table.Insert(k, StressValue(k));
      published.store(k, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(300 + t);
      uint64_t batch[32];
      uint64_t values[32];
      bool found[32];
      for (int iter = 0; iter < 3000; ++iter) {
        EpochManager::Guard guard(mgr);
        const uint64_t hi = published.load(std::memory_order_acquire);
        const uint64_t key = 1 + rng.NextBounded(kN);
        uint64_t v = 0;
        if (table.Find(key, &v)) {
          EXPECT_EQ(v, StressValue(key));
        } else {
          EXPECT_GT(key, hi);
        }
        if ((iter & 15) == 0) {
          for (int j = 0; j < 32; ++j) batch[j] = 1 + rng.NextBounded(kN);
          table.FindBatch(batch, 32, values, found);
          for (int j = 0; j < 32; ++j) {
            if (found[j]) {
              EXPECT_EQ(values[j], StressValue(batch[j]));
            }
          }
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  writer.join();
  EXPECT_EQ(table.size(), kN);
  mgr.ReclaimAll();
  EXPECT_EQ(mgr.stats().retired_outstanding, 0u);
}

// ---------------------------------------------------------------------------
// Bit-identity: the optimistic read path must return exactly what the
// latched baseline returns, interleaved with writes, for both tree
// indexes; and the batched hash-table kernels must match their scalar
// counterparts on the same (concurrently built) tables.
// ---------------------------------------------------------------------------

TEST(BitIdentityTest, LatchFreeKvMatchesLatchedKvUnderRandomOps) {
  for (const kv::IndexKind kind : {kv::IndexKind::kArt, kv::IndexKind::kBTree}) {
    kv::KvOptions optimistic;
    optimistic.index = kind;
    optimistic.shards = 4;
    optimistic.latch_free_reads = true;
    kv::KvOptions latched = optimistic;
    latched.latch_free_reads = false;

    kv::KvStore a(optimistic);
    kv::KvStore b(latched);
    Xoshiro256 rng(42);
    constexpr uint64_t kKeySpace = 4000;

    for (int step = 0; step < 20000; ++step) {
      const uint64_t key = rng.NextBounded(kKeySpace) << 50;  // span shards
      switch (rng.NextBounded(5)) {
        case 0:
        case 1: {
          const uint64_t value = rng.Next();
          a.Put(key, value);
          b.Put(key, value);
          break;
        }
        case 2: {
          EXPECT_EQ(a.Delete(key), b.Delete(key));
          break;
        }
        case 3: {
          auto ra = a.Get(key);
          auto rb = b.Get(key);
          ASSERT_EQ(ra.ok(), rb.ok());
          if (ra.ok()) {
            ASSERT_EQ(ra.value(), rb.value());
          }
          break;
        }
        default: {
          uint64_t keys[32];
          for (auto& k : keys) k = rng.NextBounded(kKeySpace) << 50;
          uint64_t va[32], vb[32];
          bool fa[32], fb[32];
          a.MultiGet(keys, 32, va, fa);
          b.MultiGet(keys, 32, vb, fb);
          for (int i = 0; i < 32; ++i) {
            ASSERT_EQ(fa[i], fb[i]);
            ASSERT_EQ(va[i], vb[i]);
          }
          break;
        }
      }
    }
    EXPECT_EQ(a.size(), b.size());
  }
}

TEST(BitIdentityTest, HashTableBatchKernelsMatchScalarProbes) {
  Xoshiro256 rng(9);
  constexpr uint64_t kN = 30000;
  ops::LinearProbeTable lpt(kN);
  ops::ChainedTable chained(kN);
  for (uint64_t i = 0; i < kN; ++i) {
    const uint64_t key = rng.NextBounded(kN);  // duplicates on purpose
    lpt.Insert(key, StressValue(key));
    chained.Insert(key, StressValue(key));
  }
  std::vector<uint64_t> probes(4096);
  for (auto& p : probes) p = rng.NextBounded(2 * kN);

  std::vector<uint64_t> batch_values(probes.size());
  std::unique_ptr<bool[]> batch_found(new bool[probes.size()]);
  lpt.FindBatch(probes.data(), probes.size(), batch_values.data(),
                batch_found.get());
  for (size_t i = 0; i < probes.size(); ++i) {
    uint64_t v = 0;
    const bool hit = lpt.Find(probes[i], &v);
    ASSERT_EQ(batch_found[i], hit);
    ASSERT_EQ(batch_values[i], hit ? v : 0u);
  }

  chained.FindBatch(probes.data(), probes.size(), batch_values.data(),
                    batch_found.get());
  uint64_t scalar_matches = 0, batch_matches = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    uint64_t v = 0;
    const bool hit = chained.Find(probes[i], &v);
    ASSERT_EQ(batch_found[i], hit);
    ASSERT_EQ(batch_values[i], hit ? v : 0u);
    scalar_matches += chained.CountMatches(probes[i]);
  }
  batch_matches = chained.ProbeBatch(probes.data(), probes.size(),
                                     [](size_t, uint64_t) {});
  EXPECT_EQ(batch_matches, scalar_matches);
}

}  // namespace
}  // namespace hwstar::sync
