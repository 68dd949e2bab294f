#ifndef HWSTAR_OPS_BTREE_H_
#define HWSTAR_OPS_BTREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hwstar/common/status.h"

namespace hwstar::ops {

/// A main-memory B+-tree with wide, cache-line-multiple nodes. Wide nodes
/// trade more in-node comparisons (cheap: the node is in L1 after one miss)
/// for a shallower tree (fewer dependent cache misses) -- the canonical
/// cache-conscious index design the paper contrasts against
/// hardware-oblivious binary trees, whose every comparison is a potential
/// miss. E7 benchmarks it against binary search over a sorted array.
///
/// Concurrency contract (optimistic lock coupling + leaf right-links):
///  - Writers (Insert/Erase) must be externally serialized -- one writer
///    at a time (KvStore's shard latch provides this). Per-node OptLocks
///    only signal readers, never arbitrate between writers.
///  - Find/FindBatch are latch-free: version-validated descent, restart
///    on interference. A reader that lands on a leaf whose keys moved
///    right in a split the parent has not absorbed yet follows the leaf
///    chain (B-link style move-right); this works because splits only
///    move keys right and deletes never merge or rebalance nodes.
///  - No node is ever freed before tree destruction (splits add nodes,
///    Erase shrinks leaves in place), so the read path needs no epoch
///    reclamation -- destruction itself requires quiescence, as before.
///  - RangeScan/RangeScanEntries, height, and MemoryBytes require writer
///    exclusion (run them under the same latch as writers). The
///    *Optimistic scan variants are latch-free like Find: per-leaf
///    version-validated copy with restart, safe against one concurrent
///    writer.
class BPlusTree {
 public:
  /// `fanout`: max keys per node. 32 keys = 256B of keys = 4 cache lines.
  explicit BPlusTree(uint32_t fanout = 32);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// Inserts key->value; duplicate keys overwrite.
  void Insert(uint64_t key, uint64_t value);

  /// Point lookup; false when absent.
  bool Find(uint64_t key, uint64_t* value) const;

  /// Batched point lookups with level-synchronous group prefetching: the
  /// group of `group_size` keys (0 = the tune::ProbeGroupSize knob) descends
  /// the tree one level at a time; at each level every lane picks its
  /// child and prefetches the child node, then a second sweep prefetches
  /// each child's key array, so a whole group's next-level misses are in
  /// flight together (all leaves sit at the same depth, so lanes stay in
  /// lockstep). Results are bit-identical to per-key Find: values[i] =
  /// value or 0 on miss, found[i] = hit flag (skipped when `found` is
  /// null). Returns the number of hits. This is the kernel
  /// KvStore::MultiGet feeds same-shard runs through for kBTree stores.
  size_t FindBatch(const uint64_t* keys, size_t n, uint64_t* values,
                   bool* found, uint32_t group_size = 0) const;

  /// Removes the key from its leaf; false when absent. Leaves are not
  /// rebalanced or merged (deletes are rare in the target workloads and
  /// underfull leaves stay valid search/scan targets); inner separator
  /// keys may outlive the keys they were copied from, which is harmless —
  /// separators only route descent.
  bool Erase(uint64_t key);

  /// Appends all values with key in [lo, hi] to out; returns the count.
  uint64_t RangeScan(uint64_t lo, uint64_t hi,
                     std::vector<uint64_t>* out) const;

  /// Appends (key, value) pairs with key in [lo, hi] in ascending key
  /// order; returns the count. Feeds checkpointing, which must persist
  /// keys, not just values.
  uint64_t RangeScanEntries(uint64_t lo, uint64_t hi,
                            std::vector<std::pair<uint64_t, uint64_t>>* out)
      const;

  /// Latch-free range scan: never blocks (or is blocked by) the writer.
  /// Each leaf's in-range entries are copied to a scratch buffer and
  /// emitted only after the leaf version re-validates; a failed
  /// validation re-descends from just past the last emitted key, so
  /// output stays ascending and duplicate-free. Per-leaf atomicity only:
  /// a key present for the scan's whole duration is always reported, but
  /// entries from different leaves may straddle a concurrent writer's
  /// update (same contract as a latched scan racing writers between
  /// shard batches).
  uint64_t RangeScanOptimistic(uint64_t lo, uint64_t hi,
                               std::vector<uint64_t>* out) const;

  /// Entries flavor of RangeScanOptimistic (ascending (key, value) pairs).
  uint64_t RangeScanEntriesOptimistic(
      uint64_t lo, uint64_t hi,
      std::vector<std::pair<uint64_t, uint64_t>>* out) const;

  /// Bulk-loads from key-sorted pairs into a fresh tree (leaves packed to
  /// ~100% fill). Keys must be strictly increasing.
  static Result<BPlusTree> BulkLoad(const std::vector<uint64_t>& keys,
                                    const std::vector<uint64_t>& values,
                                    uint32_t fanout = 32);

  uint64_t size() const { return size_; }
  uint32_t height() const;
  uint64_t MemoryBytes() const;

 private:
  struct Node;
  struct SplitResult;

  Node* NewLeaf();
  Node* NewInner();
  void FreeTree(Node* n);
  SplitResult InsertRec(Node* n, uint64_t key, uint64_t value);
  const Node* FindLeaf(uint64_t key) const;
  template <typename Emit>
  uint64_t ScanOptimisticImpl(uint64_t lo, uint64_t hi, Emit emit) const;

  uint32_t fanout_;
  std::atomic<Node*> root_{nullptr};
  uint64_t size_ = 0;
  uint64_t node_count_ = 0;
};

}  // namespace hwstar::ops

#endif  // HWSTAR_OPS_BTREE_H_
