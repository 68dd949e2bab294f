#include "hwstar/kv/kv_store.h"

#include "hwstar/common/bits.h"
#include "hwstar/common/macros.h"
#include "hwstar/sync/epoch.h"

namespace hwstar::kv {

KvStore::KvStore(KvOptions options) : options_(options) {
  HWSTAR_CHECK(bits::IsPowerOfTwo(options_.shards));
  const uint32_t shard_bits = bits::Log2Floor(options_.shards);
  shard_shift_ = 64 - shard_bits;
  shards_.reserve(options_.shards);
  for (uint32_t s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    if (options_.index == IndexKind::kBTree) {
      shard->btree = std::make_unique<ops::BPlusTree>(options_.btree_fanout);
    } else if (options_.latch_free_reads) {
      // ART's Erase and node growth free memory; latch-free readers need
      // those frees deferred past their pins. The B+-tree never frees
      // nodes, so it needs no epoch domain.
      shard->art.SetEpochManager(&sync::EpochManager::Global());
    }
    shards_.push_back(std::move(shard));
  }
}

void KvStore::Put(uint64_t key, uint64_t value) {
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  puts_.Inc();
  if (options_.index == IndexKind::kArt) {
    shard.art.Insert(key, value);
  } else {
    shard.btree->Insert(key, value);
  }
}

bool KvStore::Delete(uint64_t key) {
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const bool erased = options_.index == IndexKind::kArt
                          ? shard.art.Erase(key)
                          : shard.btree->Erase(key);
  if (erased) deletes_.Inc();
  return erased;
}

Result<uint64_t> KvStore::Get(uint64_t key) {
  Shard& shard = *shards_[ShardOf(key)];
  gets_.Inc();
  uint64_t value = 0;
  bool found = false;
  if (options_.latch_free_reads) {
    // Latch-free point read: optimistic descent, no shared cache line is
    // written (the stat counter above is sharded). ART descents pin an
    // epoch so a racing Erase cannot free a node out from under them;
    // the B+-tree never frees nodes, so its descent needs no pin.
    if (options_.index == IndexKind::kArt) {
      sync::EpochManager::Guard guard;
      found = shard.art.Find(key, &value);
    } else {
      found = shard.btree->Find(key, &value);
    }
  } else {
    std::lock_guard<std::mutex> lock(shard.mutex);
    found = options_.index == IndexKind::kArt ? shard.art.Find(key, &value)
                                              : shard.btree->Find(key, &value);
  }
  if (!found) return Status::NotFound("key not found");
  hits_.Inc();
  return value;
}

void KvStore::MultiGet(const uint64_t* keys, size_t count, uint64_t* values,
                       bool* found) {
  size_t i = 0;
  while (i < count) {
    // One ShardOf per key: the run head's shard id is computed once and
    // the extension loop classifies each subsequent key exactly once.
    const uint32_t s = ShardOf(keys[i]);
    size_t end = i + 1;
    while (end < count && ShardOf(keys[end]) == s) ++end;
    const size_t run = end - i;

    // Serve the whole same-shard run through the index's batched probe
    // kernel so the run's index descents overlap their cache misses (see
    // ops/probe_kernels.h) -- latch-free by default, under one latch
    // acquisition (never one per key) otherwise.
    Shard& shard = *shards_[s];
    bool* run_found = found == nullptr ? nullptr : found + i;
    // The kernels' group width is the calibrated tune::ProbeGroupSize knob.
    size_t hits = 0;
    if (options_.latch_free_reads) {
      if (options_.index == IndexKind::kArt) {
        sync::EpochManager::Guard guard;
        hits = shard.art.FindBatch(keys + i, run, values + i, run_found);
      } else {
        hits = shard.btree->FindBatch(keys + i, run, values + i, run_found);
      }
    } else {
      std::lock_guard<std::mutex> lock(shard.mutex);
      hits = options_.index == IndexKind::kArt
                 ? shard.art.FindBatch(keys + i, run, values + i, run_found)
                 : shard.btree->FindBatch(keys + i, run, values + i,
                                          run_found);
    }
    gets_.Add(run);
    hits_.Add(hits);
    i = end;
  }
}

uint64_t KvStore::RangeScan(uint64_t lo, uint64_t hi,
                            std::vector<uint64_t>* out) {
  return RangeScanLimit(lo, hi, /*limit=*/0, out);
}

uint64_t KvStore::RangeScanLimit(uint64_t lo, uint64_t hi, uint64_t limit,
                                 std::vector<uint64_t>* out) {
  if (lo > hi) return 0;
  const size_t base = out->size();
  uint64_t count = 0;
  // Shards partition the key space by range in ascending order, so
  // visiting them in index order yields globally sorted results.
  const uint32_t first = ShardOf(lo);
  const uint32_t last = ShardOf(hi);
  for (uint32_t s = first; s <= last; ++s) {
    Shard& shard = *shards_[s];
    scans_.Inc();
    if (options_.index == IndexKind::kBTree && options_.latch_free_reads) {
      // The B-link tree's optimistic scan validates per leaf and never
      // frees nodes, so it needs neither the latch nor an epoch guard --
      // the scan no longer blocks the shard's writer (nor vice versa).
      count += shard.btree->RangeScanOptimistic(lo, hi, out);
    } else {
      // ART range scans require writer exclusion (Erase frees nodes and
      // the scan walks them unversioned), so they stay latched even in
      // latch-free-reads mode.
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (options_.index == IndexKind::kArt) {
        count += shard.art.RangeScan(lo, hi, out);
      } else {
        count += shard.btree->RangeScan(lo, hi, out);
      }
    }
    if (limit != 0 && count >= limit) break;
  }
  if (limit != 0 && count > limit) {
    out->resize(base + limit);
    count = limit;
  }
  return count;
}

uint64_t KvStore::RangeScanEntries(
    uint64_t lo, uint64_t hi,
    std::vector<std::pair<uint64_t, uint64_t>>* out) {
  if (lo > hi) return 0;
  uint64_t count = 0;
  const uint32_t first = ShardOf(lo);
  const uint32_t last = ShardOf(hi);
  for (uint32_t s = first; s <= last; ++s) {
    Shard& shard = *shards_[s];
    scans_.Inc();
    if (options_.index == IndexKind::kBTree && options_.latch_free_reads) {
      count += shard.btree->RangeScanEntriesOptimistic(lo, hi, out);
    } else {
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (options_.index == IndexKind::kArt) {
        count += shard.art.RangeScanEntries(lo, hi, out);
      } else {
        count += shard.btree->RangeScanEntries(lo, hi, out);
      }
    }
  }
  return count;
}

uint64_t KvStore::size() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += options_.index == IndexKind::kArt ? shard->art.size()
                                               : shard->btree->size();
  }
  return total;
}

KvStats KvStore::stats() const {
  // Lock-free: counters are relaxed atomics, so a snapshot can be taken
  // while writers hold shard latches and latch-free readers stream past
  // them. Readers want monotonic counters, not a consistent cut.
  KvStats total;
  total.gets = gets_.value();
  total.puts = puts_.value();
  total.hits = hits_.value();
  total.scans = scans_.value();
  total.deletes = deletes_.value();
  return total;
}

void KvStore::RegisterMetrics(obs::Registry* registry) const {
  registry->RegisterCounter("kv.gets", &gets_);
  registry->RegisterCounter("kv.puts", &puts_);
  registry->RegisterCounter("kv.hits", &hits_);
  registry->RegisterCounter("kv.scans", &scans_);
  registry->RegisterCounter("kv.deletes", &deletes_);
}

}  // namespace hwstar::kv
