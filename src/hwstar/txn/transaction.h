#ifndef HWSTAR_TXN_TRANSACTION_H_
#define HWSTAR_TXN_TRANSACTION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hwstar/common/status.h"
#include "hwstar/dur/durable_kv_store.h"
#include "hwstar/obs/metric.h"
#include "hwstar/obs/registry.h"
#include "hwstar/sync/optlock.h"

namespace hwstar::txn {

/// Why transactions aborted (and how many committed) — the abort-rate
/// numerator bench_e21_tpcc reports.
struct TxnStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted_lock = 0;        ///< could not lock a write-set stripe
  uint64_t aborted_validation = 0;  ///< a read-set version moved
  uint64_t aborted_doomed = 0;      ///< inconsistent read seen before commit

  uint64_t aborted() const {
    return aborted_lock + aborted_validation + aborted_doomed;
  }
};

class Transaction;

/// STO/Silo-style optimistic concurrency control over a DurableKvStore.
///
/// Writes between transactions are mediated by a striped table of
/// OptLocks (sync/optlock.h): a transactional read records the stripe
/// version observed around a latch-free KvStore::Get; Commit() locks the
/// write-set's stripes in ascending stripe order (canonical, so two
/// committers can't deadlock), validates every recorded read version,
/// installs the write-set through DurableKvStore::CommitTxn (atomic WAL
/// framing — recovery replays whole transactions or nothing), bumps the
/// stripe versions, and releases. Stripe locks are held until the commit
/// record is durable: a reader that observes a committed value can only
/// commit after the writer it depends on is on disk, so durability is
/// never acknowledged out of dependency order across log shards.
///
/// Isolation contract: serializable AMONG transactions. Plain
/// DurableKvStore::Put/Delete bypass the stripe table — mixing them with
/// concurrent transactions on the same keys forfeits isolation (but never
/// crash atomicity or durability, which the WAL framing alone provides).
class TxnManager {
 public:
  explicit TxnManager(dur::DurableKvStore* db);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Starts a transaction. The Transaction must not outlive the manager.
  Transaction Begin();

  /// Snapshot of commit/abort counters (racy reads, exact under quiesce).
  TxnStats stats() const;

  /// Registers the TxnStats counters (borrowed) as "txn.begun",
  /// "txn.committed" and "txn.aborted.lock|validation|doomed".
  void RegisterMetrics(obs::Registry* registry) const;

  uint32_t StripeOf(uint64_t key) const;

  dur::DurableKvStore* db() { return db_; }

 private:
  friend class Transaction;

  dur::DurableKvStore* db_;
  std::unique_ptr<sync::OptLock[]> stripes_;

  obs::Counter begun_;
  obs::Counter committed_;
  obs::Counter aborted_lock_;
  obs::Counter aborted_validation_;
  obs::Counter aborted_doomed_;
};

/// One optimistic transaction: reads validate against stripe versions,
/// writes buffer privately until Commit. Single-threaded use; cheap to
/// create per operation. After Commit or Abort returns, the object is
/// finished — Reset() rearms it for reuse (the retry loop every caller
/// of optimistic transactions needs anyway).
class Transaction {
 public:
  Transaction(Transaction&&) = default;
  Transaction& operator=(Transaction&&) = default;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Transactional read. Sees this transaction's own buffered writes
  /// first; otherwise performs an optimistic latch-free read validated
  /// against the key's stripe version. Returns kAborted when the
  /// transaction is doomed (an earlier read of the same stripe saw a
  /// different version — the snapshot is already inconsistent) — the
  /// caller should Abort and retry from scratch.
  Status Get(uint64_t key, uint64_t* value, bool* found);

  /// Buffers an upsert (applied only if Commit succeeds).
  void Put(uint64_t key, uint64_t value);

  /// Buffers a delete.
  void Delete(uint64_t key);

  /// Validates and installs. OK = committed and durable. kAborted = a
  /// conflict was detected and NOTHING was installed; retry is always
  /// safe. Other codes = I/O trouble from the WAL layer.
  /// `wal_wait_nanos`, when non-null, receives the group-commit wait.
  Status Commit(uint64_t* wal_wait_nanos = nullptr);

  /// Drops all buffered state without installing anything.
  void Abort();

  /// Rearms a finished transaction for reuse.
  void Reset();

  bool doomed() const { return doomed_; }
  size_t read_set_size() const { return read_set_.size(); }
  size_t write_set_size() const { return write_set_.size(); }

 private:
  friend class TxnManager;

  explicit Transaction(TxnManager* mgr) : mgr_(mgr) {}

  struct BufferedWrite {
    uint64_t value = 0;
    bool is_delete = false;
  };

  TxnManager* mgr_;
  bool doomed_ = false;
  bool finished_ = false;
  /// stripe index -> version observed by the first read through it.
  std::unordered_map<uint32_t, uint64_t> read_set_;
  /// key -> last buffered write (ordered: CommitTxn wants sorted keys).
  std::map<uint64_t, BufferedWrite> write_set_;
};

}  // namespace hwstar::txn

#endif  // HWSTAR_TXN_TRANSACTION_H_
