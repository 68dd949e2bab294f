#ifndef HWSTAR_OPS_CONCURRENT_HASH_TABLE_H_
#define HWSTAR_OPS_CONCURRENT_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "hwstar/common/hash.h"
#include "hwstar/common/macros.h"
#include "hwstar/ops/probe_kernels.h"

namespace hwstar::ops {

/// A lock-free-build open-addressing hash table: many threads insert
/// concurrently by claiming empty slots with compare-and-swap; after the
/// build completes, reads need no synchronization at all. This is how the
/// parallel no-partitioning join builds its single shared table -- the
/// "simple but synchronization-hungry" side of the design space the
/// radix join avoids by partitioning. Fixed capacity (sized up front),
/// duplicate keys allowed, no deletion.
class ConcurrentHashTable {
 public:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  /// Sizes for `expected` entries at `load_factor`.
  explicit ConcurrentHashTable(uint64_t expected, double load_factor = 0.5);

  ConcurrentHashTable(const ConcurrentHashTable&) = delete;
  ConcurrentHashTable& operator=(const ConcurrentHashTable&) = delete;

  /// Thread-safe insert (CAS slot claiming). Key ~0 is reserved. The
  /// caller must not insert more than `expected` entries (capacity is
  /// fixed); there is deliberately no shared insert counter -- a single
  /// atomic bumped by every thread would ping-pong its cache line and
  /// serialize the build (exactly the false-sharing cost E11 measures).
  void Insert(uint64_t key, uint64_t value);

  /// Counts entries matching `key`. Safe to call concurrently with other
  /// readers once all inserters have finished (or been synchronized-with).
  uint64_t CountMatches(uint64_t key) const;

  /// First matching value; false when absent. Same safety contract as
  /// CountMatches.
  bool Find(uint64_t key, uint64_t* value) const;

  /// Invokes fn(value) for every match; returns the match count. Same
  /// safety contract as CountMatches. Templated so the per-key path
  /// inlines the callable (no std::function indirection per match).
  template <typename Fn>
  uint32_t Probe(uint64_t key, Fn&& fn) const {
    uint64_t slot = HomeSlot(key);
    uint32_t matches = 0;
    for (;;) {
      const uint64_t k = keys_[slot].load(std::memory_order_acquire);
      if (k == kEmpty) return matches;
      if (k == key) {
        fn(values_[slot].load(std::memory_order_acquire));
        ++matches;
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// Batched Find with group prefetching (see LinearProbeTable::FindBatch
  /// for the exact results contract: values[i] = first match or 0,
  /// found[i] optional, returns hit count). The safety contract is the
  /// scalar one -- concurrent readers are always safe, and reading while
  /// builders are still inserting is safe but may miss (or observe a
  /// zero value for) entries whose publication races the probe; prefetch
  /// never changes that, as it has no architectural effect on the
  /// memory model.
  size_t FindBatch(const uint64_t* keys, size_t n, uint64_t* values,
                   bool* found, uint32_t group_size = 0) const;

  /// Batched full probe with group prefetching: fn(i, value) per match,
  /// in scalar loop order. Returns total matches. Same safety contract
  /// as CountMatches.
  template <typename Fn>
  uint64_t ProbeBatch(const uint64_t* keys, size_t n, Fn&& fn,
                      uint32_t group_size = 0) const {
    uint64_t matches = 0;
    WithProbeGroup(group_size, [&](auto g) {
      constexpr uint32_t G = decltype(g)::value;
      uint64_t slots[G];
      GroupPrefetchLoop<G>(
          n,
          [&](uint32_t lane, size_t i) {
            const uint64_t slot = HomeSlot(keys[i]);
            slots[lane] = slot;
            HWSTAR_PREFETCH(&keys_[slot]);
            HWSTAR_PREFETCH(&values_[slot]);
          },
          [&](uint32_t lane, size_t i) {
            const uint64_t key = keys[i];
            uint64_t slot = slots[lane];
            for (;;) {
              const uint64_t k = keys_[slot].load(std::memory_order_acquire);
              if (k == kEmpty) break;
              if (k == key) {
                fn(i, values_[slot].load(std::memory_order_acquire));
                ++matches;
              }
              slot = (slot + 1) & mask_;
            }
          });
    });
    return matches;
  }

  uint64_t capacity() const { return mask_ + 1; }

  /// Occupied-slot count, by scanning (O(capacity)). A diagnostic, not a
  /// hot-path accessor; see the Insert comment for why there is no
  /// incrementally-maintained counter.
  uint64_t size() const;

 private:
  uint64_t HomeSlot(uint64_t key) const { return Mix64(key) >> shift_; }

  std::vector<std::atomic<uint64_t>> keys_;
  std::vector<std::atomic<uint64_t>> values_;
  uint64_t mask_;
  uint32_t shift_;
};

}  // namespace hwstar::ops

#endif  // HWSTAR_OPS_CONCURRENT_HASH_TABLE_H_
