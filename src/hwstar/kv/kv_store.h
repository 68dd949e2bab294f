#ifndef HWSTAR_KV_KV_STORE_H_
#define HWSTAR_KV_KV_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "hwstar/common/status.h"
#include "hwstar/obs/metric.h"
#include "hwstar/obs/registry.h"
#include "hwstar/ops/art.h"
#include "hwstar/ops/btree.h"

namespace hwstar::kv {

/// Index structure backing a KvStore.
enum class IndexKind : uint8_t {
  kArt = 0,    ///< adaptive radix tree (hardware-conscious default)
  kBTree = 1,  ///< cache-conscious B+-tree
};

/// Options for KvStore.
struct KvOptions {
  IndexKind index = IndexKind::kArt;
  /// Number of key-range shards (power of two). Each shard has its own
  /// index and latch, so disjoint-key operations scale with cores; range
  /// sharding (by high key bits) keeps scans order-preserving.
  uint32_t shards = 1;
  uint32_t btree_fanout = 32;
  /// When true (the default), point reads (Get/MultiGet) never take the
  /// shard latch: they run the index's optimistic read path -- a
  /// version-validated OLC descent, epoch-pinned for ART (whose Erase
  /// frees nodes). For kBTree, range scans go latch-free too (per-leaf
  /// version-validated copy); ART scans stay latched because its scan
  /// walks nodes unversioned. Writers still serialize on the latch.
  /// False restores fully latched reads (the pre-sync behavior; E20
  /// benchmarks the two against each other).
  bool latch_free_reads = true;
};

/// Operation counters (a point-in-time snapshot; see KvStore::stats()).
struct KvStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t hits = 0;  ///< gets that found the key
  uint64_t scans = 0;
  uint64_t deletes = 0;  ///< Delete calls that found (and removed) the key
};

/// An embedded, ordered key-value store over the library's main-memory
/// indexes: the OLTP substrate of the paper's world. The design choices
/// on display are exactly the hardware-conscious ones the keynote
/// demands: the index is a cache-efficient structure (ART or wide
/// B+-tree, never a binary tree), writes scale by range sharding (one
/// latch + one index per key range), and point reads are latch-free by
/// default -- optimistic lock coupling plus epoch-based reclamation
/// (hwstar/sync), so readers scale past the point where latched reads
/// plateau on the shard latches' cache lines. Thread-safe.
class KvStore {
 public:
  explicit KvStore(KvOptions options = KvOptions());

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Inserts or overwrites.
  void Put(uint64_t key, uint64_t value);

  /// Removes the key; returns whether it existed. The WAL replays this as
  /// a tombstone, so both index kinds support true erase (not
  /// sentinel-value overwrites, which would poison range scans).
  bool Delete(uint64_t key);

  /// Point read; NotFound when absent. With latch_free_reads (default)
  /// this never touches the shard latch: the descent is optimistic and
  /// restarts on writer interference, and stat counters are bumped on
  /// per-thread shards of obs counters.
  Result<uint64_t> Get(uint64_t key);

  /// Batched point reads: fills values[i] (the value, or 0 on a miss)
  /// and found[i] for each keys[i]. `found` may be null when the caller
  /// only wants values -- the per-key hit flags are then skipped
  /// entirely (misses are still distinguishable only if 0 is not a
  /// stored value). Contiguous runs of same-shard keys are served
  /// through the index's batched probe kernel (ART/B+-tree FindBatch),
  /// which keeps a group of index descents' cache misses in flight
  /// instead of paying them one key at a time. With latch_free_reads
  /// (default) a run never takes the shard latch -- the batch kernel's
  /// whole-group optimistic descent restarts on writer interference;
  /// otherwise the run takes the latch once (not once per key). Callers
  /// that group keys by shard (svc::GroupSelector orders its get groups
  /// exactly this way) amortize index-root and miss-latency costs across
  /// the whole batch.
  void MultiGet(const uint64_t* keys, size_t count, uint64_t* values,
                bool* found);

  /// Appends values for keys in [lo, hi] in ascending key order; returns
  /// the count. Spans shards (they partition the key space by range).
  ///
  /// Mixed-mode contract (all RangeScan* variants): a scan racing
  /// concurrent writers is NOT a point-in-time cut. Each shard's portion
  /// is internally consistent -- per shard under the latch, or per LEAF
  /// for the kBTree latch-free path -- but writes that land behind the
  /// scan cursor are missed and writes ahead of it are seen. What IS
  /// guaranteed: every key present for the scan's whole duration appears
  /// exactly once, keys absent throughout never appear, output stays in
  /// ascending key order, and (kBTree + latch_free_reads) the scan
  /// neither blocks nor is blocked by the shard's writer. Callers that
  /// need a stronger cut must quiesce writers themselves (the
  /// checkpointer's fuzzy scan + WAL replay idempotence is the worked
  /// example).
  uint64_t RangeScan(uint64_t lo, uint64_t hi, std::vector<uint64_t>* out);

  /// RangeScan bounded to at most `limit` result rows (0 = unlimited).
  /// Early-exits at shard granularity; the truncation keeps the smallest
  /// keys (scan order), so a clamped scan is a prefix of the full scan.
  uint64_t RangeScanLimit(uint64_t lo, uint64_t hi, uint64_t limit,
                          std::vector<uint64_t>* out);

  /// Appends (key, value) pairs for keys in [lo, hi] in ascending key
  /// order; returns the count. This is the checkpointer's fuzzy-snapshot
  /// primitive: subject to the mixed-mode contract above — the scan is
  /// not a point-in-time cut; concurrent writers may or may not appear,
  /// which WAL replay idempotence absorbs.
  uint64_t RangeScanEntries(uint64_t lo, uint64_t hi,
                            std::vector<std::pair<uint64_t, uint64_t>>* out);

  uint64_t size() const;
  KvStats stats() const;
  const KvOptions& options() const { return options_; }

  /// The shard holding `key`: shards partition the key space by range
  /// (high key bits).
  uint32_t ShardOf(uint64_t key) const {
    return shard_shift_ >= 64 ? 0 : static_cast<uint32_t>(key >> shard_shift_);
  }

  /// Registers the operation counters (borrowed) as
  /// "kv.gets|puts|hits|scans|deletes".
  void RegisterMetrics(obs::Registry* registry) const;

 private:
  struct Shard {
    std::mutex mutex;
    ops::AdaptiveRadixTree art;
    std::unique_ptr<ops::BPlusTree> btree;
  };

  KvOptions options_;
  uint32_t shard_shift_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Store-wide, bumped without the shard latch by latch-free readers and
  // latched writers alike. obs::Counter shards per thread, so concurrent
  // Gets do not all fetch_add one cache line (which would serialize the
  // very readers the latch-free path unshackles).
  obs::Counter gets_;
  obs::Counter puts_;
  obs::Counter hits_;
  obs::Counter scans_;
  obs::Counter deletes_;
};

}  // namespace hwstar::kv

#endif  // HWSTAR_KV_KV_STORE_H_
