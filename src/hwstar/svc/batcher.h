#ifndef HWSTAR_SVC_BATCHER_H_
#define HWSTAR_SVC_BATCHER_H_

#include <cstdint>
#include <vector>

#include "hwstar/svc/admission.h"

namespace hwstar::svc {

struct BatcherOptions {
  /// Maximum requests per executed batch.
  uint32_t max_batch = 64;
  /// Shard count of the backing KvStore (power of two); point-gets are
  /// grouped by the same high-bit range mapping the store uses, so each
  /// batch resolves under a single shard latch via KvStore::MultiGet.
  uint32_t kv_shards = 1;
};

/// One executable batch: requests of the same type that share enough
/// structure to amortize per-request fixed costs (dispatch, latch
/// acquisition, cache warm-up) across the group. A `kPut` batch is the
/// shard's WRITE batch: it may contain kDelete tickets interleaved with
/// puts (both write types share one group so equal-key ordering holds
/// across them).
struct Batch {
  RequestType type = RequestType::kPointGet;
  uint32_t shard = 0;  ///< kv shard for point-get / write batches
  std::vector<TicketPtr> tickets;
};

/// Groups tickets into batches — the serving-side analogue of the
/// paper's "measure against the hardware" rule: instead of paying the
/// fixed dispatch cost per request, compatible small requests ride one
/// morsel-friendly batch.
///
///  - Point-gets group per kv shard and are sorted by key, so one
///    MultiGet serves the batch under one latch with index locality.
///  - Writes (puts AND deletes) group per kv shard and are STABLE-sorted
///    by key (same-key writes keep submission order), so a durable
///    service commits the batch with one WAL group-commit wait instead of
///    one sync per write. Equal-key runs never split across batches,
///    whatever mix of put/delete they contain.
///  - Aggregates group per target ColumnStore: consecutive evaluation
///    reuses the store's columns while they are cache-warm.
///  - Scans, joins, and transactions stay singletons (already
///    coarse-grained work; a transaction serializes itself via
///    validation, not batch placement).
///
/// Service workers feed Group() one GroupSelector pick at a time, so a
/// group normally yields one batch; a write group grown past max_batch by
/// an equal-key run yields several, executed in order by one worker.
///
/// Grouping never changes results: every request is executed with its own
/// arguments, so batched output is bit-identical to one-at-a-time (the
/// svc_test invariant).
class Batcher {
 public:
  explicit Batcher(BatcherOptions options);

  std::vector<Batch> Group(std::vector<TicketPtr> tickets) const;

  /// The store's range-shard mapping (high key bits).
  uint32_t ShardOf(uint64_t key) const {
    return shard_shift_ >= 64 ? 0 : static_cast<uint32_t>(key >> shard_shift_);
  }

  const BatcherOptions& options() const { return options_; }

 private:
  BatcherOptions options_;
  uint32_t shard_shift_;
};

/// Picks one group from the admission queue for a Service worker: the
/// first ticket offered heads it, and a later one joins iff Group() would
/// batch it with the head — a point-get or a write (put or delete) on the
/// head's kv shard, an aggregate on the head's store — while the group
/// holds fewer than max_batch tickets. A write whose key is already in the
/// group joins even past max_batch, and while the group's pop lingers no
/// other pop takes it: the never-split rule, applied at the queue, so an
/// equal-key run never lands in two groups that could run concurrently.
/// Scans, joins and transactions head a group of one.
class GroupSelector final : public TicketSelector {
 public:
  explicit GroupSelector(const Batcher* batcher) : batcher_(batcher) {}

  /// Forgets the current group; the next ticket offered heads a new one.
  void Reset();

  bool Take(const Ticket& ticket) override;
  bool Open() const override;
  bool Room() const override;
  /// A write (put or delete) to a key the group already writes.
  bool Claims(const Ticket& ticket) const override;

 private:
  const Batcher* batcher_;
  uint32_t size_ = 0;  ///< tickets taken; 0 = no head yet
  RequestType kind_ = RequestType::kPointGet;  ///< kPut for any write
  uintptr_t id_ = 0;  ///< the head's kv shard or aggregate store
  std::vector<uint64_t> write_keys_;  ///< keys of the writes taken
};

}  // namespace hwstar::svc

#endif  // HWSTAR_SVC_BATCHER_H_
