#ifndef HWSTAR_OPS_HASH_TABLE_H_
#define HWSTAR_OPS_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hwstar/common/hash.h"
#include "hwstar/common/macros.h"
#include "hwstar/mem/aligned.h"
#include "hwstar/ops/probe_kernels.h"
#include "hwstar/simd/kernels.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::sync {
class EpochManager;
}  // namespace hwstar::sync

namespace hwstar::ops {

/// Open-addressing hash table with linear probing over one power-of-two
/// array of 16-byte (key, value) slots. Duplicate keys are supported (each
/// insert takes a slot); lookups visit the whole chain. The layout choice
/// -- one flat array, no pointers, key and value side by side -- is the
/// hardware-conscious one: a probe scans consecutive slots, four to a
/// 64-byte line, instead of chasing a chain across the heap, and a hit
/// reads its value from the line that held its key. The array is
/// line-aligned, so no slot straddles two lines. Arrays of
/// mem::kHugePageBytes or more sit on transparent huge pages
/// (mem::HugePageAlloc), so a probe into a table far above the last-level
/// cache misses the TLB far less often.
///
/// Concurrency contract, two build paths (never run at the same time):
///  - Insert (atomic publication): a single writer may Insert concurrently
///    with any number of readers. Insert stores the value, then publishes
///    the key with a release store; readers load keys with acquire, so
///    once a probe sees a key it sees that key's value. An in-progress
///    insert is simply invisible (its slot still reads kEmpty).
///  - InsertShared (CAS slot claiming): any number of threads may call it
///    at once -- the parallel no-partitioning join's shared build. A
///    probe that races such a build may miss an entry or read its value
///    as 0; reads are exact once every InsertShared call has returned.
/// There is no resizing and no deletion, so no reclamation is needed.
class LinearProbeTable {
 public:
  /// Sentinel marking an empty slot; the key value ~0 cannot be inserted.
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  /// `expected` entries at `load_factor` determine the capacity
  /// (power-of-two).
  explicit LinearProbeTable(uint64_t expected, double load_factor = 0.5);

  /// Inserts key->value; keys may repeat. No resizing (capacity is sized
  /// up front, as join builds know their input cardinality).
  void Insert(uint64_t key, uint64_t value);

  /// Inserts keys[i]->values[i] for i in [0, n); safe to call from many
  /// threads at once (see the class contract), but not concurrently with
  /// Insert. Each entry claims its slot with a compare-and-swap on the
  /// key, then stores the value with release. size() advances by one
  /// relaxed add per call, never one per entry: a counter bumped by every
  /// insert of every thread would ping-pong its line and serialize the
  /// build.
  void InsertShared(const uint64_t* keys, const uint64_t* values, size_t n);

  /// Invokes fn(value) for every entry matching key; returns match count.
  /// Templated on the callable so the per-key hot path inlines it -- a
  /// std::function here would cost an indirect call per match (measured
  /// in E2/A2 as a double-digit-percent probe tax).
  template <typename Fn>
  uint32_t Probe(uint64_t key, Fn&& fn) const {
    return WalkChainFrom(key, HomeSlot(key), [&](uint64_t slot) {
      fn(slots_[slot].value.load(std::memory_order_relaxed));
      return true;
    });
  }

  /// Counts matches without a callback. This is the join hot path: no
  /// statistics are recorded so it is safe to call concurrently from many
  /// probe threads (the table itself is read-only here).
  HWSTAR_ALWAYS_INLINE uint32_t CountMatches(uint64_t key) const {
    return WalkChainFrom(key, HomeSlot(key),
                         [](uint64_t) { return true; });
  }

  /// Batch counting probe with *distance-pipelined* software prefetching:
  /// the home slot of the key `distance` positions ahead is prefetched
  /// before the current key is processed. This is the A6 ablation knob
  /// (sweeping the distance exposes the machine's miss-queue depth); the
  /// production batched kernels are FindBatch / ProbeBatch below, which
  /// use the group-prefetch discipline from probe_kernels.h instead of a
  /// tunable distance. distance == 0 degenerates to a plain loop.
  /// Returns total matches.
  uint64_t CountMatchesBatch(const uint64_t* keys, uint64_t n,
                             uint32_t prefetch_distance = 8) const;

  /// Diagnostic: average probe chain length over a sample of keys.
  /// Single-threaded; does not perturb stats().
  double MeasureAvgProbeLength(const std::vector<uint64_t>& sample) const;

  /// Returns the first matching value through `out`; false when absent.
  bool Find(uint64_t key, uint64_t* out) const;

  /// Batched Find with group prefetching: hashes keys in groups of
  /// `group_size` (0 = the tune::ProbeGroupSize knob, rounded to a compiled
  /// size), prefetches every group member's home slot, then probes the
  /// group -- so up to G misses overlap instead of serializing. Results
  /// are bit-identical to calling Find per key: values[i] gets the first
  /// matching value, or 0 on a miss; found[i] (skipped entirely when
  /// `found` is null) gets the hit flag. Returns the number of hits.
  /// Batches smaller than one group fall back to the scalar path.
  size_t FindBatch(const uint64_t* keys, size_t n, uint64_t* values,
                   bool* found, uint32_t group_size = 0) const;

  /// Batched full probe with group prefetching: invokes fn(i, value) for
  /// every entry matching keys[i], for each i in [0, n). Callbacks fire
  /// in the same order as a scalar `for i: Probe(keys[i], ...)` loop.
  /// Returns the total match count; with an empty fn the optimizer
  /// reduces this to a pure batched match counter (the join count path).
  template <typename Fn>
  uint64_t ProbeBatch(const uint64_t* keys, size_t n, Fn&& fn,
                      uint32_t group_size = 0) const {
    uint64_t matches = 0;
    WithProbeGroup(group_size, [&](auto g) {
      constexpr uint32_t G = decltype(g)::value;
      const simd::Backend be = simd::ActiveBackend();
      uint64_t home[G];
      // Explicit group loop: the whole group's hash phase is one
      // data-parallel Mix64Batch sweep, then G prefetches issue (one per
      // key: its home slot's line holds key and value), then the probe
      // phase walks each chain against lines already in flight.
      size_t i = 0;
      for (; i + G <= n; i += G) {
        simd::Mix64Batch(be, keys + i, G, home);
        for (uint32_t lane = 0; lane < G; ++lane) {
          home[lane] >>= shift_;
          HWSTAR_PREFETCH(&slots_[home[lane]]);
        }
        for (uint32_t lane = 0; lane < G; ++lane) {
          const size_t idx = i + lane;
          matches += WalkChainFrom(keys[idx], home[lane], [&](uint64_t s) {
            fn(idx, slots_[s].value.load(std::memory_order_relaxed));
            return true;
          });
        }
      }
      for (; i < n; ++i) {
        matches += Probe(keys[i], [&](uint64_t value) { fn(i, value); });
      }
    });
    return matches;
  }

  uint64_t capacity() const { return mask_ + 1; }
  uint64_t size() const { return size_.load(std::memory_order_relaxed); }
  uint64_t MemoryBytes() const { return capacity() * sizeof(Slot); }

 private:
  /// Home slot of a key: the HIGH bits of the hash. The radix join
  /// partitions by the LOW hash bits, so using the high bits here keeps
  /// slot placement independent of partition membership -- otherwise all
  /// keys of one partition would pile into a handful of slots.
  uint64_t HomeSlot(uint64_t key) const { return Mix64(key) >> shift_; }

  /// One entry: the key publishes the value beside it (see the class
  /// contract). 16 bytes, so four slots share a 64-byte line.
  struct Slot {
    std::atomic<uint64_t> key;
    std::atomic<uint64_t> value;
  };
  static_assert(sizeof(Slot) == 16);
  static_assert(mem::kCacheLineBytes % sizeof(Slot) == 0);

  /// Walks the probe chain of `key` from `slot`, calling visit(slot) on
  /// every match until visit returns false or the chain's terminating
  /// empty slot is reached; returns the match count. Every key is read
  /// with acquire, so a matched slot's value is the one its insert
  /// published.
  template <typename Visit>
  HWSTAR_ALWAYS_INLINE uint32_t WalkChainFrom(uint64_t key, uint64_t slot,
                                              Visit&& visit) const {
    uint32_t matches = 0;
    for (;;) {
      const uint64_t k = slots_[slot].key.load(std::memory_order_acquire);
      if (k == kEmpty) return matches;
      if (k == key) {
        ++matches;
        if (!visit(slot)) return matches;
      }
      slot = (slot + 1) & mask_;
    }
  }

  std::unique_ptr<Slot[], mem::AlignedDeleter> slots_;
  uint64_t mask_;
  uint32_t shift_;
  std::atomic<uint64_t> size_{0};
};

/// Chained (bucket + linked list) hash table: the textbook,
/// hardware-oblivious baseline. Every probe step dereferences a node
/// pointer, i.e., a dependent cache miss once out of cache. The batched
/// lookups below are the AMAC counterexample: even this layout recovers
/// memory-level parallelism when K walks are interleaved explicitly.
///
/// Concurrency contract (atomic publication + epoch-retired node blocks):
/// a single writer may Insert concurrently with readers. Inserts prepend:
/// the node is filled in privately, then the bucket head is published with
/// a release store, so a node's fields are immutable once reachable and
/// chain indices strictly decrease along any chain. Nodes live in one
/// NodeBlock array; growth copies into a double-size block, publishes the
/// block pointer (release) BEFORE any head that refers to the new range,
/// and retires the old block to the attached sync::EpochManager (or frees
/// it immediately when none is attached -- single-threaded mode, matching
/// the old vector-realloc semantics). Readers that see a head index beyond
/// their block snapshot reload the block pointer once, which is guaranteed
/// sufficient. With an epoch manager attached, concurrent readers must
/// hold a sync::EpochManager::Guard across each probe. Multiple writers
/// still require external serialization.
class ChainedTable {
 public:
  explicit ChainedTable(uint64_t expected_buckets);
  ~ChainedTable();

  ChainedTable(const ChainedTable&) = delete;
  ChainedTable& operator=(const ChainedTable&) = delete;

  void Insert(uint64_t key, uint64_t value);

  /// Attaches an epoch-based reclamation domain: node blocks replaced by
  /// growth are retired to `epoch` instead of freed immediately, which
  /// makes concurrent probes safe against growth. Null restores immediate
  /// frees. Must not be changed while operations are in flight.
  void SetEpochManager(sync::EpochManager* epoch) { epoch_ = epoch; }
  sync::EpochManager* epoch_manager() const { return epoch_; }

  /// Invokes fn(value) for every match; returns the match count.
  /// Templated for the same per-key inlining reason as
  /// LinearProbeTable::Probe.
  template <typename Fn>
  uint32_t Probe(uint64_t key, Fn&& fn) const {
    return ProbeAtBucket(HomeSlot(key), key, std::forward<Fn>(fn));
  }

  uint32_t CountMatches(uint64_t key) const;
  bool Find(uint64_t key, uint64_t* out) const;

  /// Below the footprint gate the table is (almost) cache-resident, chain
  /// steps hit, and the AMAC ring's state shuffling is pure overhead
  /// (E18 measured up to ~2x slowdown on an L1-resident table). FindBatch
  /// and ProbeBatch degrade to the scalar walk under it -- the paper's
  /// discipline: the right code depends on where the data lands in the
  /// hierarchy, so the kernel checks. The gate is the
  /// tune::AmacMinTableBytes knob, read per batch: tune::ApplyMachine
  /// derives it from a machine's cache hierarchy and the tune::Calibrator
  /// re-measures the crossover.

  /// Batched Find via AMAC: a ring of `group_size` in-flight bucket walks
  /// (each stage prefetches its next node and yields), so chained misses
  /// overlap across keys even though each chain is serial. Bit-identical
  /// to per-key Find: values[i] = first match or 0, found[i] = hit flag
  /// (skipped when `found` is null). Returns the number of hits.
  /// group_size 0 = auto: tables under the footprint gate take the
  /// scalar walk and the rest read the calibrated tune::AmacRingWidth
  /// knob; an explicit nonzero width forces the ring regardless of
  /// footprint (Calibrator trials, pinned bench arms).
  size_t FindBatch(const uint64_t* keys, size_t n, uint64_t* values,
                   bool* found, uint32_t group_size = 0) const;

  /// Batched full probe via AMAC: fn(i, value) for every node matching
  /// keys[i]. Keys complete out of order (the ring interleaves walks), so
  /// callback order is unspecified across keys; within one key, matches
  /// arrive in chain order. Returns the total match count. With
  /// group_size 0, tables under the footprint gate take the scalar walk
  /// (in order) instead; a nonzero width forces the ring.
  template <typename Fn>
  uint64_t ProbeBatch(const uint64_t* keys, size_t n, Fn&& fn,
                      uint32_t group_size = 0) const {
    uint64_t matches = 0;
    if (group_size == 0) {
      // Same auto-vs-forced split as FindBatch: the footprint gate only
      // arbitrates when the caller left the width to policy.
      if (MemoryBytes() < tune::AmacMinTableBytes().Get()) {
        // Cache-resident walk: chain steps hit, so the remaining cost is
        // compute -- chunk the hash phase through Mix64Batch so at least
        // the hashing runs data-parallel.
        const simd::Backend be = simd::ActiveBackend();
        constexpr size_t kChunk = 256;
        uint64_t buckets[kChunk];
        for (size_t base = 0; base < n; base += kChunk) {
          const size_t m = n - base < kChunk ? n - base : kChunk;
          simd::Mix64Batch(be, keys + base, m, buckets);
          for (size_t j = 0; j < m; ++j) {
            const size_t i = base + j;
            matches += ProbeAtBucket(buckets[j] >> shift_, keys[i],
                                     [&](uint64_t value) { fn(i, value); });
          }
        }
        return matches;
      }
      group_size = static_cast<uint32_t>(tune::AmacRingWidth().Get());
    }
    WithProbeGroup(group_size, [&](auto g) {
      constexpr uint32_t K = decltype(g)::value;
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
        Fn* fn;
        uint64_t* matches;
        const uint64_t* keys;

        void Start(State& st, size_t i) {
          st.key = keys[i];
          st.i = i;
          st.bucket = table->HomeSlot(st.key);
          st.at_bucket = true;
          HWSTAR_PREFETCH(&table->buckets_[st.bucket]);
        }
        bool Step(State& st) {
          if (st.at_bucket) {
            st.node =
                table->buckets_[st.bucket].load(std::memory_order_acquire);
            st.at_bucket = false;
            if (st.node < 0) return false;
            blk = table->Resnapshot(blk, st.node);
            HWSTAR_PREFETCH(&blk->nodes[static_cast<size_t>(st.node)]);
            return true;
          }
          const Node& node = blk->nodes[static_cast<size_t>(st.node)];
          if (node.key == st.key) {
            (*fn)(st.i, node.value);
            ++*matches;
          }
          st.node = node.next;
          if (st.node < 0) return false;
          HWSTAR_PREFETCH(&blk->nodes[static_cast<size_t>(st.node)]);
          return true;
        }
      };
      Job job{this, block_.load(std::memory_order_acquire), &fn, &matches,
              keys};
      AmacLoop<K>(n, job);
    });
    return matches;
  }

  /// Diagnostic: average chain length over a sample of keys.
  double MeasureAvgProbeLength(const std::vector<uint64_t>& sample) const;

  uint64_t size() const { return size_.load(std::memory_order_relaxed); }
  uint64_t MemoryBytes() const;

 private:
  struct Node {
    uint64_t key;
    uint64_t value;
    int64_t next;  // index into the node block, -1 terminates
  };

  /// One contiguous node array. Fields are immutable after the block is
  /// published; growth replaces the whole block.
  struct NodeBlock {
    explicit NodeBlock(uint64_t cap) : capacity(cap), nodes(new Node[cap]) {}
    const uint64_t capacity;
    const std::unique_ptr<Node[]> nodes;
  };

  /// A head index at or beyond the snapshot's capacity means the snapshot
  /// predates the growth that made room for that node; the writer
  /// publishes the grown block before any such head, so one reload
  /// (ordered after the head load that exposed the index) must observe a
  /// block large enough. Chain `next` indices strictly decrease, so only
  /// the head can ever be out of range.
  const NodeBlock* Resnapshot(const NodeBlock* blk, int64_t head) const {
    if (head >= 0 && static_cast<uint64_t>(head) >= blk->capacity) {
      blk = block_.load(std::memory_order_acquire);
    }
    return blk;
  }

  NodeBlock* Grow(NodeBlock* old);

  /// Probe body starting from an already-computed bucket index, so the
  /// batched paths can hash whole chunks through simd::Mix64Batch and
  /// feed the buckets in.
  template <typename Fn>
  uint32_t ProbeAtBucket(uint64_t b, uint64_t key, Fn&& fn) const {
    const NodeBlock* blk = block_.load(std::memory_order_acquire);
    int64_t n = buckets_[b].load(std::memory_order_acquire);
    blk = Resnapshot(blk, n);
    uint32_t matches = 0;
    while (n >= 0) {
      const Node& node = blk->nodes[static_cast<size_t>(n)];
      if (node.key == key) {
        fn(node.value);
        ++matches;
      }
      n = node.next;
    }
    return matches;
  }

  /// Find body starting from an already-computed bucket index (see
  /// ProbeAtBucket); defined in the .cc next to Find.
  bool FindAtBucket(uint64_t b, uint64_t key, uint64_t* out) const;

  /// High hash bits, for the same partition-independence reason as
  /// LinearProbeTable::HomeSlot.
  uint64_t HomeSlot(uint64_t key) const { return Mix64(key) >> shift_; }

  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // head index or -1
  std::atomic<NodeBlock*> block_;
  uint64_t mask_;
  uint32_t shift_;
  std::atomic<uint64_t> size_{0};
  sync::EpochManager* epoch_ = nullptr;
};

}  // namespace hwstar::ops

#endif  // HWSTAR_OPS_HASH_TABLE_H_
