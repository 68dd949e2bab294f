#ifndef HWSTAR_DUR_DURABLE_KV_STORE_H_
#define HWSTAR_DUR_DURABLE_KV_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "hwstar/common/status.h"
#include "hwstar/dur/file_backend.h"
#include "hwstar/dur/log_writer.h"
#include "hwstar/dur/recovery.h"
#include "hwstar/kv/kv_store.h"

namespace hwstar::dur {

/// Tuning for a DurableKvStore.
struct DurableKvOptions {
  kv::KvOptions kv;
  /// WAL shards (power of two), range-mapped by high key bits like the
  /// kv shards so key-sorted batches touch contiguous logs. Each shard
  /// has its own LogWriter (own syncer, own segment files), so the sync
  /// serialization point scales with devices, not with one global log.
  uint32_t log_shards = 1;
  LogWriterOptions log;
};

/// One buffered mutation: an upsert (`is_delete=false`) or a tombstone.
/// The unit MutateBatch and CommitTxn consume.
struct WriteOp {
  uint64_t key = 0;
  uint64_t value = 0;  ///< ignored for deletes
  bool is_delete = false;
};

/// KvStore + write-ahead durability.
///
/// Mutations follow WAL-before-apply: under the log shard's apply mutex
/// the record is staged in the WAL (assigning its LSN) and applied to the
/// in-memory store, making {append, apply} atomic — which is what lets a
/// fuzzy checkpoint take `mark = last_lsn` under that same mutex and know
/// every op at or below the mark is in the scanned state. The caller then
/// waits for durability OUTSIDE the mutex, so writers stage while the
/// syncer lingers: that overlap is the group-commit win.
///
/// Readers go straight to `kv()`; they may observe acked-but-not-yet-
/// durable writes (speculative visibility — a crash can roll those back,
/// but never a write whose Put/Delete already returned OK at a real sync
/// level).
///
/// I/O errors poison the affected log (kIoError propagates out of every
/// later mutation); nothing aborts the process.
class DurableKvStore {
 public:
  /// Recovers from `<prefix>-ckpt` + `<prefix>-wal<shard>-*.wal` (fresh
  /// directory = fresh empty store) and opens the logs for appending.
  /// `recovery_out`, when non-null, receives what recovery found.
  static Result<std::unique_ptr<DurableKvStore>> Open(
      FileBackend* backend, std::string prefix, DurableKvOptions options,
      RecoveryInfo* recovery_out = nullptr);

  DurableKvStore(const DurableKvStore&) = delete;
  DurableKvStore& operator=(const DurableKvStore&) = delete;

  /// Durable upsert: a one-op MutateBatch. Returns once the record is
  /// durable at the configured sync level. `wal_wait_nanos` (optional)
  /// receives the time this call spent blocked on the commit — the
  /// group-commit latency the svc metrics report as the wal phase.
  Status Put(uint64_t key, uint64_t value, uint64_t* wal_wait_nanos = nullptr);

  /// Durable erase, a one-op MutateBatch (logged as a tombstone whether or
  /// not the key exists — existence is only known under the latch, and
  /// replaying a no-op delete is harmless). `erased` (optional) reports
  /// whether the key was present.
  Status Delete(uint64_t key, bool* erased = nullptr,
                uint64_t* wal_wait_nanos = nullptr);

  /// Durable multi-put: stages and applies every record, then waits for
  /// all of them at once — one wait per touched log shard regardless of
  /// batch size.
  Status PutBatch(const uint64_t* keys, const uint64_t* values, size_t count,
                  uint64_t* wal_wait_nanos = nullptr);

  /// Durable mixed put/delete batch, same group-commit shape as PutBatch;
  /// svc drives every durable write group through it. Ops apply in array
  /// order, so a put followed by a delete of the same key ends deleted
  /// (svc::GroupSelector's stable key sort keeps equal-key ops in
  /// submission order). `erased`, when non-null, is a count-sized array
  /// receiving each delete op's "key was present" flag; put slots, and
  /// every slot when the call fails, are set to false.
  Status MutateBatch(const WriteOp* ops, size_t count,
                     uint64_t* wal_wait_nanos = nullptr,
                     bool* erased = nullptr);

  /// Installs a validated transaction's write-set atomically with respect
  /// to crash recovery. `ops` must be sorted by key with no duplicates
  /// (hwstar::txn's write-set is a map, so this is free). Per touched log
  /// shard the fragments are staged as kTxnBegin + kTxnPut/kTxnDelete
  /// records and applied to memory; a single kTxnCommit naming the total
  /// fragment count then lands in the lowest touched shard. Recovery
  /// installs either the whole write-set or none of it.
  ///
  /// This is a LOW-LEVEL install: it does no validation and takes no
  /// stripe locks — TxnManager calls it while holding the write-set's
  /// stripe locks, which is what makes the memory install atomic with
  /// respect to concurrent transactions. `tid` must come from
  /// AllocateTxnId() (unique across restarts).
  Status CommitTxn(uint64_t tid, const WriteOp* ops, size_t count,
                   uint64_t* wal_wait_nanos = nullptr);

  /// Hands out transaction ids: dense, unique, and — because Open seeds
  /// the counter above every id recovery saw — never reused across
  /// restarts (a reused id could alias a dead transaction's surviving
  /// fragments into a live one's completeness count).
  uint64_t AllocateTxnId() {
    return next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Fuzzy checkpoint + log truncation: per shard takes `mark = last LSN`
  /// under the apply mutex, scans the live store (fuzzy — concurrent
  /// writers may or may not appear; replay idempotence absorbs them),
  /// installs the snapshot crash-atomically, then rotates each log and
  /// deletes sealed segments fully covered by the mark.
  Status Checkpoint();

  /// The in-memory store — the read path (Get / MultiGet / RangeScan).
  kv::KvStore* kv() { return &store_; }

  uint32_t log_shards() const { return static_cast<uint32_t>(logs_.size()); }
  LogWriter* log(uint32_t shard) { return logs_[shard]->writer.get(); }

  /// Sum of every log shard's counters.
  LogWriterStats log_stats() const;

  /// Registers every log shard's metrics (borrowed) under
  /// "dur.wal.<shard>." (see LogWriter::RegisterMetrics). The kv store's
  /// own counters register through kv()->RegisterMetrics.
  void RegisterMetrics(obs::Registry* registry) const;

  const std::string& prefix() const { return prefix_; }

 private:
  struct LogShard {
    /// Makes {WAL append, memory apply} atomic; the durability wait
    /// happens outside it.
    std::mutex apply_mutex;
    std::unique_ptr<LogWriter> writer;
  };

  DurableKvStore(FileBackend* backend, std::string prefix,
                 DurableKvOptions options);

  uint32_t LogShardOf(uint64_t key) const {
    return log_shift_ >= 64 ? 0 : static_cast<uint32_t>(key >> log_shift_);
  }

  /// Waits for every log shard's `pending` LSN (0 = untouched) to be
  /// durable; returns the first error. `wal_wait_nanos` (optional)
  /// receives the time spent waiting.
  Status WaitPending(const std::vector<uint64_t>& pending,
                     uint64_t* wal_wait_nanos);

  FileBackend* backend_;
  const std::string prefix_;
  const DurableKvOptions options_;
  uint32_t log_shift_;
  kv::KvStore store_;
  std::vector<std::unique_ptr<LogShard>> logs_;
  /// Serializes checkpoints against each other (mutations keep flowing).
  std::mutex checkpoint_mutex_;
  /// Commit/checkpoint interlock. CommitTxn holds it SHARED across its
  /// whole staging sequence (every fragment plus the commit record);
  /// Checkpoint holds it EXCLUSIVE across mark-taking and the fuzzy scan.
  /// That gives two guarantees no per-shard mutex can: (1) a transaction
  /// lands entirely at-or-below all checkpoint marks or entirely above
  /// them — never split by truncation; (2) the snapshot never captures a
  /// write-set whose commit record hasn't been appended yet, so a crash
  /// can't smuggle uncommitted effects into durable state via the
  /// checkpoint. Plain Put/Delete never take it (single records need
  /// neither guarantee).
  std::shared_mutex txn_gate_;
  std::atomic<uint64_t> next_txn_id_{1};
};

}  // namespace hwstar::dur

#endif  // HWSTAR_DUR_DURABLE_KV_STORE_H_
