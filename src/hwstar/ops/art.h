#ifndef HWSTAR_OPS_ART_H_
#define HWSTAR_OPS_ART_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hwstar::sync {
class EpochManager;
}  // namespace hwstar::sync

namespace hwstar::ops {

/// The Adaptive Radix Tree (ART) of Leis et al. (ICDE 2013, the same
/// proceedings as the keynote): a 256-ary trie over the big-endian bytes
/// of the key whose inner nodes adapt among four physical layouts
/// (Node4/16/48/256) so that space stays bounded while every node fits in
/// a handful of cache lines. Each kind is its own allocation at its own
/// size: a leaf is 32 bytes (key and value), N4 56, N16 168, N48 664 and
/// N256 2072 (its 256 child slots inline). Combined with lazy expansion
/// (leaves may sit at any depth) and path compression (one-child chains
/// collapse into a per-node prefix), lookups touch O(key bytes) cache
/// lines instead of O(log n) dependent misses -- the hardware-conscious
/// answer to the binary search tree. Keys here are uint64, compared in
/// numeric order.
///
/// Concurrency contract (optimistic lock coupling, Leis et al. DaMoN'16):
///  - Writers (Insert/Erase) must be externally serialized -- one writer
///    at a time (KvStore's shard latch provides this). Each node carries a
///    sync::OptLock; writers lock only the nodes they mutate in place, so
///    the lock never arbitrates between writers, it only signals readers.
///  - Find/FindBatch are latch-free and may run concurrently with the one
///    writer: they validate node versions and restart on interference,
///    never writing shared cache lines. Callers must hold a
///    sync::EpochManager::Guard (pin) across each call when an epoch
///    manager is attached; otherwise a racing Erase could free a node
///    mid-descent.
///  - Range scans, census, and MemoryBytes require writer exclusion (run
///    them under the same latch as writers); they are safe against
///    concurrent Find/FindBatch.
///  - With no epoch manager attached (the default), replaced nodes are
///    freed immediately and the tree behaves exactly like the pre-sync
///    single-threaded structure.
class AdaptiveRadixTree {
 public:
  AdaptiveRadixTree() = default;
  ~AdaptiveRadixTree();

  AdaptiveRadixTree(const AdaptiveRadixTree&) = delete;
  AdaptiveRadixTree& operator=(const AdaptiveRadixTree&) = delete;
  AdaptiveRadixTree(AdaptiveRadixTree&& other) noexcept;
  AdaptiveRadixTree& operator=(AdaptiveRadixTree&& other) noexcept;

  /// Inserts key->value; duplicate keys overwrite.
  void Insert(uint64_t key, uint64_t value);

  /// Point lookup; false when absent.
  bool Find(uint64_t key, uint64_t* value) const;

  /// Batched point lookups with interleaved descents: keys are processed
  /// in groups of `group_size` (0 = the tune::ProbeGroupSize knob); each
  /// round advances every still-descending key by one trie node and
  /// prefetches the next node, so up to G node misses are in flight while
  /// a scalar descent would hold exactly one. Results are bit-identical
  /// to per-key Find: values[i] = value or 0 on miss, found[i] = hit flag
  /// (skipped when `found` is null). Returns the number of hits. This is
  /// the kernel KvStore::MultiGet feeds same-shard runs through.
  size_t FindBatch(const uint64_t* keys, size_t n, uint64_t* values,
                   bool* found, uint32_t group_size = 0) const;

  /// Removes the key; false when absent. Freed paths collapse: an inner
  /// node left with a single child merges into that child (re-extending
  /// the compressed path), so a fully erased tree returns to its empty
  /// state. Node layouts never shrink kinds (an N256 stays an N256) —
  /// adaptivity is paid on growth, where it is amortized by inserts.
  bool Erase(uint64_t key);

  /// Appends values of all keys in [lo, hi] in ascending key order;
  /// returns the count.
  uint64_t RangeScan(uint64_t lo, uint64_t hi,
                     std::vector<uint64_t>* out) const;

  /// Appends (key, value) pairs for all keys in [lo, hi] in ascending key
  /// order; returns the count. Feeds checkpointing, which must persist
  /// keys, not just values.
  uint64_t RangeScanEntries(uint64_t lo, uint64_t hi,
                            std::vector<std::pair<uint64_t, uint64_t>>* out)
      const;

  uint64_t size() const { return size_; }

  /// Node-type census (diagnostics; shows the adaptivity at work).
  struct NodeCounts {
    uint64_t node4 = 0;
    uint64_t node16 = 0;
    uint64_t node48 = 0;
    uint64_t node256 = 0;
    uint64_t leaves = 0;
  };
  NodeCounts CountNodes() const;

  /// Heap footprint in bytes: the exact sum of every node's kind size
  /// (allocator overhead excluded).
  uint64_t MemoryBytes() const;

  /// Attaches an epoch-based reclamation domain: nodes replaced by Insert
  /// (growth, prefix splits) or unlinked by Erase are retired to `epoch`
  /// instead of freed immediately, which makes Find/FindBatch safe to run
  /// concurrently with the (single) writer. Null restores immediate frees
  /// (single-threaded mode). Must not be changed while operations are in
  /// flight.
  void SetEpochManager(sync::EpochManager* epoch) { epoch_ = epoch; }
  sync::EpochManager* epoch_manager() const { return epoch_; }

  /// The header every node kind starts with (defined in art.cc); public
  /// only so internal helpers can name it.
  struct Node;

 private:
  std::atomic<Node*> root_{nullptr};
  uint64_t size_ = 0;
  sync::EpochManager* epoch_ = nullptr;
};

}  // namespace hwstar::ops

#endif  // HWSTAR_OPS_ART_H_
