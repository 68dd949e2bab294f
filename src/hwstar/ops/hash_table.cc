#include "hwstar/ops/hash_table.h"

#include <new>

#include "hwstar/common/bits.h"
#include "hwstar/sync/epoch.h"

namespace hwstar::ops {

LinearProbeTable::LinearProbeTable(uint64_t expected, double load_factor) {
  HWSTAR_CHECK(load_factor > 0.0 && load_factor < 1.0);
  uint64_t min_cap = static_cast<uint64_t>(
      static_cast<double>(expected < 1 ? 1 : expected) / load_factor);
  uint64_t cap = bits::NextPowerOfTwo(min_cap < 8 ? 8 : min_cap);
  auto* slots = static_cast<Slot*>(mem::HugePageAlloc(cap * sizeof(Slot)));
  HWSTAR_CHECK(slots != nullptr);
  // Each slot is constructed once, already empty. std::atomic is
  // trivially destructible, so AlignedFree alone releases the array.
  for (uint64_t i = 0; i < cap; ++i) new (&slots[i]) Slot{{kEmpty}, {0}};
  slots_.reset(slots);
  mask_ = cap - 1;
  shift_ = 64 - bits::Log2Floor(cap);
}

void LinearProbeTable::Insert(uint64_t key, uint64_t value) {
  HWSTAR_DCHECK(key != kEmpty);
  // Single writer: a plain load and store, no locked read-modify-write.
  const uint64_t size = size_.load(std::memory_order_relaxed);
  // The table never fills completely: a probe for an absent key stops
  // only at an empty slot.
  HWSTAR_CHECK(size + 1 < capacity());
  uint64_t slot = HomeSlot(key);
  while (slots_[slot].key.load(std::memory_order_relaxed) != kEmpty) {
    slot = (slot + 1) & mask_;
  }
  // Value first, then the key with release: a reader that sees the key
  // (acquire) sees the value. Until the key lands the slot reads kEmpty
  // and the entry is simply not there yet.
  slots_[slot].value.store(value, std::memory_order_relaxed);
  slots_[slot].key.store(key, std::memory_order_release);
  size_.store(size + 1, std::memory_order_relaxed);
}

void LinearProbeTable::InsertShared(const uint64_t* keys,
                                    const uint64_t* values, size_t n) {
  // Reserving the whole call's entries up front keeps the fill check
  // exact across threads, so every claim loop below finds an empty slot.
  const uint64_t before = size_.fetch_add(n, std::memory_order_relaxed);
  HWSTAR_CHECK(before + n < capacity());  // as in Insert
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = keys[i];
    HWSTAR_DCHECK(key != kEmpty);
    uint64_t slot = HomeSlot(key);
    for (;;) {
      uint64_t expected = kEmpty;
      if (slots_[slot].key.load(std::memory_order_relaxed) == kEmpty &&
          slots_[slot].key.compare_exchange_strong(
              expected, key, std::memory_order_acq_rel)) {
        break;
      }
      slot = (slot + 1) & mask_;
    }
    // The key is visible before its value: a racing probe may read the
    // value as 0 (the class contract); a thread that has synchronized
    // with this call's return reads it exactly.
    slots_[slot].value.store(values[i], std::memory_order_release);
  }
}

bool LinearProbeTable::Find(uint64_t key, uint64_t* out) const {
  uint64_t value = 0;
  const uint32_t matches =
      WalkChainFrom(key, HomeSlot(key), [&](uint64_t slot) {
        value = slots_[slot].value.load(std::memory_order_relaxed);
        return false;  // first match only
      });
  if (matches == 0) return false;
  *out = value;
  return true;
}

size_t LinearProbeTable::FindBatch(const uint64_t* keys, size_t n,
                                   uint64_t* values, bool* found,
                                   uint32_t group_size) const {
  size_t hits = 0;
  WithProbeGroup(group_size, [&](auto g) {
    constexpr uint32_t G = decltype(g)::value;
    const simd::Backend be = simd::ActiveBackend();
    uint64_t home[G];
    // Explicit group loop: the hash phase is one data-parallel
    // Mix64Batch sweep per group, then G prefetches (one per key: the
    // home slot's line holds key and value) go out together, then the
    // probe phase walks chains against lines already in flight. The
    // ragged tail (and any batch under one group) takes the scalar path
    // with no staging overhead.
    size_t i = 0;
    for (; i + G <= n; i += G) {
      simd::Mix64Batch(be, keys + i, G, home);
      for (uint32_t lane = 0; lane < G; ++lane) {
        home[lane] >>= shift_;
        HWSTAR_PREFETCH(&slots_[home[lane]]);
      }
      for (uint32_t lane = 0; lane < G; ++lane) {
        const size_t idx = i + lane;
        uint64_t value = 0;
        const bool hit =
            WalkChainFrom(keys[idx], home[lane], [&](uint64_t slot) {
              value = slots_[slot].value.load(std::memory_order_relaxed);
              return false;
            }) != 0;
        values[idx] = value;
        if (found != nullptr) found[idx] = hit;
        hits += hit;
      }
    }
    for (; i < n; ++i) {
      uint64_t value = 0;
      const bool hit = Find(keys[i], &value);
      values[i] = hit ? value : 0;
      if (found != nullptr) found[i] = hit;
      hits += hit;
    }
  });
  return hits;
}

uint64_t LinearProbeTable::CountMatchesBatch(const uint64_t* keys, uint64_t n,
                                             uint32_t prefetch_distance) const {
  uint64_t matches = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (prefetch_distance != 0 && i + prefetch_distance < n) {
      const uint64_t ahead = HomeSlot(keys[i + prefetch_distance]);
      HWSTAR_PREFETCH(&slots_[ahead]);
    }
    matches += CountMatches(keys[i]);
  }
  return matches;
}

double LinearProbeTable::MeasureAvgProbeLength(
    const std::vector<uint64_t>& sample) const {
  if (sample.empty()) return 0.0;
  uint64_t steps = 0;
  for (uint64_t key : sample) {
    uint64_t slot = HomeSlot(key);
    while (slots_[slot].key.load(std::memory_order_acquire) != kEmpty) {
      ++steps;
      slot = (slot + 1) & mask_;
    }
    ++steps;  // terminating empty slot
  }
  return static_cast<double>(steps) / static_cast<double>(sample.size());
}

ChainedTable::ChainedTable(uint64_t expected_buckets) {
  uint64_t cap =
      bits::NextPowerOfTwo(expected_buckets < 8 ? 8 : expected_buckets);
  buckets_.reset(new std::atomic<int64_t>[cap]);
  for (uint64_t i = 0; i < cap; ++i) {
    buckets_[i].store(-1, std::memory_order_relaxed);
  }
  // One node per bucket up front; growth doubles from there.
  block_.store(new NodeBlock(cap), std::memory_order_relaxed);
  mask_ = cap - 1;
  shift_ = 64 - bits::Log2Floor(cap);
}

ChainedTable::~ChainedTable() {
  delete block_.load(std::memory_order_relaxed);
}

ChainedTable::NodeBlock* ChainedTable::Grow(NodeBlock* old) {
  const uint64_t count = size_.load(std::memory_order_relaxed);
  NodeBlock* grown = new NodeBlock(old->capacity * 2);
  for (uint64_t i = 0; i < count; ++i) {
    grown->nodes[i] = old->nodes[i];
  }
  // Publish the block before any bucket head can name an index in the new
  // range -- the reader-side Resnapshot contract depends on this order.
  block_.store(grown, std::memory_order_release);
  if (epoch_ != nullptr) {
    epoch_->Retire(
        old, [](void* p) { delete static_cast<NodeBlock*>(p); },
        sizeof(NodeBlock) + old->capacity * sizeof(Node));
  } else {
    delete old;
  }
  return grown;
}

void ChainedTable::Insert(uint64_t key, uint64_t value) {
  const uint64_t b = HomeSlot(key);
  const uint64_t count = size_.load(std::memory_order_relaxed);
  NodeBlock* blk = block_.load(std::memory_order_relaxed);
  if (count == blk->capacity) blk = Grow(blk);
  // Fill the node privately, then publish it by swinging the bucket head
  // (release). Prepending keeps every reachable node immutable and makes
  // chain indices strictly decreasing.
  Node& node = blk->nodes[count];
  node.key = key;
  node.value = value;
  node.next = buckets_[b].load(std::memory_order_relaxed);
  buckets_[b].store(static_cast<int64_t>(count), std::memory_order_release);
  size_.store(count + 1, std::memory_order_relaxed);
}

uint32_t ChainedTable::CountMatches(uint64_t key) const {
  const uint64_t b = HomeSlot(key);
  const NodeBlock* blk = block_.load(std::memory_order_acquire);
  int64_t n = buckets_[b].load(std::memory_order_acquire);
  blk = Resnapshot(blk, n);
  uint32_t matches = 0;
  while (n >= 0) {
    const Node& node = blk->nodes[static_cast<size_t>(n)];
    matches += node.key == key;
    n = node.next;
  }
  return matches;
}

bool ChainedTable::Find(uint64_t key, uint64_t* out) const {
  return FindAtBucket(HomeSlot(key), key, out);
}

bool ChainedTable::FindAtBucket(uint64_t b, uint64_t key,
                                uint64_t* out) const {
  const NodeBlock* blk = block_.load(std::memory_order_acquire);
  int64_t n = buckets_[b].load(std::memory_order_acquire);
  blk = Resnapshot(blk, n);
  while (n >= 0) {
    const Node& node = blk->nodes[static_cast<size_t>(n)];
    if (node.key == key) {
      *out = node.value;
      return true;
    }
    n = node.next;
  }
  return false;
}

size_t ChainedTable::FindBatch(const uint64_t* keys, size_t n,
                               uint64_t* values, bool* found,
                               uint32_t group_size) const {
  size_t hits = 0;
  if (group_size == 0) {
    // Auto mode: the footprint gate applies. A cache-resident table's
    // ring would only add overhead (see the footprint-gate comment in
    // the header); the gate is the calibrated tune::AmacMinTableBytes
    // knob, read per batch. An explicit nonzero group_size skips the
    // gate entirely — the caller (a Calibrator trial, a pinned-width
    // bench arm) is asking for the ring, not for a policy decision.
    if (MemoryBytes() < tune::AmacMinTableBytes().Get()) {
      // Cache-resident walk: chain steps hit, so hashing is a real
      // fraction of the cost -- run it data-parallel in chunks and
      // feed the precomputed buckets to the walk.
      const simd::Backend be = simd::ActiveBackend();
      constexpr size_t kChunk = 256;
      uint64_t bucket_of[kChunk];
      for (size_t base = 0; base < n; base += kChunk) {
        const size_t m = n - base < kChunk ? n - base : kChunk;
        simd::Mix64Batch(be, keys + base, m, bucket_of);
        for (size_t j = 0; j < m; ++j) {
          const size_t i = base + j;
          uint64_t value = 0;
          const bool hit =
              FindAtBucket(bucket_of[j] >> shift_, keys[i], &value);
          values[i] = hit ? value : 0;
          if (found != nullptr) found[i] = hit;
          hits += hit;
        }
      }
      return hits;
    }
    group_size = static_cast<uint32_t>(tune::AmacRingWidth().Get());
  }
  WithProbeGroup(group_size, [&](auto g) {
    constexpr uint32_t K = decltype(g)::value;
    if (n < K) {
      for (size_t i = 0; i < n; ++i) {
        uint64_t value = 0;
        const bool hit = Find(keys[i], &value);
        values[i] = hit ? value : 0;
        if (found != nullptr) found[i] = hit;
        hits += hit;
      }
      return;
    }
    // AMAC walk: stage 0 prefetches the bucket head, each later stage
    // inspects one node and prefetches the next, stopping at the first
    // match (Find semantics). The shared block snapshot only ever moves
    // forward (Resnapshot), and any index valid in an older block stays
    // valid in a newer one, so one snapshot serves all lanes.
    struct Job {
      struct State {
        uint64_t key;
        size_t i;
        uint64_t bucket;
        int64_t node;
        bool at_bucket;
      };
      const ChainedTable* table;
      const NodeBlock* blk;
      uint64_t* values;
      bool* found;
      size_t* hits;
      const uint64_t* keys;

      void Finish(State& st, uint64_t value, bool hit) const {
        values[st.i] = value;
        if (found != nullptr) found[st.i] = hit;
        *hits += hit;
      }
      void Start(State& st, size_t i) {
        st.key = keys[i];
        st.i = i;
        st.bucket = table->HomeSlot(st.key);
        st.at_bucket = true;
        HWSTAR_PREFETCH(&table->buckets_[st.bucket]);
      }
      bool Step(State& st) {
        if (st.at_bucket) {
          st.node = table->buckets_[st.bucket].load(std::memory_order_acquire);
          st.at_bucket = false;
          if (st.node < 0) {
            Finish(st, 0, false);
            return false;
          }
          blk = table->Resnapshot(blk, st.node);
          HWSTAR_PREFETCH(&blk->nodes[static_cast<size_t>(st.node)]);
          return true;
        }
        const Node& node = blk->nodes[static_cast<size_t>(st.node)];
        if (node.key == st.key) {
          Finish(st, node.value, true);
          return false;
        }
        st.node = node.next;
        if (st.node < 0) {
          Finish(st, 0, false);
          return false;
        }
        HWSTAR_PREFETCH(&blk->nodes[static_cast<size_t>(st.node)]);
        return true;
      }
    };
    Job job{this, block_.load(std::memory_order_acquire),
            values, found,    &hits,
            keys};
    AmacLoop<K>(n, job);
  });
  return hits;
}

double ChainedTable::MeasureAvgProbeLength(
    const std::vector<uint64_t>& sample) const {
  if (sample.empty()) return 0.0;
  const NodeBlock* blk = block_.load(std::memory_order_acquire);
  uint64_t steps = 0;
  for (uint64_t key : sample) {
    const uint64_t b = HomeSlot(key);
    int64_t n = buckets_[b].load(std::memory_order_acquire);
    blk = Resnapshot(blk, n);
    while (n >= 0) {
      ++steps;
      n = blk->nodes[static_cast<size_t>(n)].next;
    }
    ++steps;  // bucket-head inspection
  }
  return static_cast<double>(steps) / static_cast<double>(sample.size());
}

uint64_t ChainedTable::MemoryBytes() const {
  return (mask_ + 1) * sizeof(int64_t) + size() * sizeof(Node);
}

}  // namespace hwstar::ops
