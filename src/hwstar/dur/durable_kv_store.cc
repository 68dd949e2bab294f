#include "hwstar/dur/durable_kv_store.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "hwstar/common/macros.h"
#include "hwstar/common/timer.h"
#include "hwstar/dur/checkpoint.h"
#include "hwstar/dur/wal_format.h"

namespace hwstar::dur {

DurableKvStore::DurableKvStore(FileBackend* backend, std::string prefix,
                               DurableKvOptions options)
    : backend_(backend),
      prefix_(std::move(prefix)),
      options_(options),
      log_shift_(options.log_shards == 1
                     ? 64
                     : 64 - static_cast<uint32_t>(
                                std::countr_zero(options.log_shards))),
      store_(options.kv) {}

Result<std::unique_ptr<DurableKvStore>> DurableKvStore::Open(
    FileBackend* backend, std::string prefix, DurableKvOptions options,
    RecoveryInfo* recovery_out) {
  HWSTAR_CHECK(options.log_shards >= 1 &&
               (options.log_shards & (options.log_shards - 1)) == 0);
  std::unique_ptr<DurableKvStore> db(
      new DurableKvStore(backend, std::move(prefix), options));
  auto recovered = Recover(backend, db->prefix_, options.log_shards,
                           &db->store_);
  if (!recovered.ok()) return recovered.status();
  for (uint32_t shard = 0; shard < options.log_shards; ++shard) {
    auto writer = LogWriter::Open(backend,
                                  ShardLogPrefix(db->prefix_, shard),
                                  options.log,
                                  recovered.value().next_lsn[shard],
                                  recovered.value().next_segment[shard]);
    if (!writer.ok()) return writer.status();
    auto log_shard = std::make_unique<LogShard>();
    log_shard->writer = std::move(writer.value());
    db->logs_.push_back(std::move(log_shard));
  }
  db->next_txn_id_.store(recovered.value().max_txn_id + 1,
                         std::memory_order_relaxed);
  if (recovery_out != nullptr) *recovery_out = std::move(recovered.value());
  return db;
}

Status DurableKvStore::Put(uint64_t key, uint64_t value,
                           uint64_t* wal_wait_nanos) {
  const WriteOp op{key, value, false};
  return MutateBatch(&op, 1, wal_wait_nanos);
}

Status DurableKvStore::Delete(uint64_t key, bool* erased,
                              uint64_t* wal_wait_nanos) {
  const WriteOp op{key, 0, true};
  return MutateBatch(&op, 1, wal_wait_nanos, erased);
}

Status DurableKvStore::PutBatch(const uint64_t* keys, const uint64_t* values,
                                size_t count, uint64_t* wal_wait_nanos) {
  std::vector<WriteOp> ops(count);
  for (size_t i = 0; i < count; ++i) {
    ops[i].key = keys[i];
    ops[i].value = values[i];
  }
  return MutateBatch(ops.data(), count, wal_wait_nanos);
}

Status DurableKvStore::MutateBatch(const WriteOp* ops, size_t count,
                                   uint64_t* wal_wait_nanos, bool* erased) {
  if (wal_wait_nanos != nullptr) *wal_wait_nanos = 0;
  // Every slot is answered even when an Append fails part-way.
  if (erased != nullptr) std::fill(erased, erased + count, false);
  if (count == 0) return Status::OK();

  // Highest LSN staged per log shard this batch; 0 = untouched.
  std::vector<uint64_t> pending(logs_.size(), 0);

  // Stage+apply by contiguous same-shard run. svc::GroupSelector sorts its
  // write groups by key, so for sorted input each log shard's mutex is
  // taken once per batch, not once per record.
  size_t i = 0;
  while (i < count) {
    const uint32_t shard = LogShardOf(ops[i].key);
    size_t j = i;
    while (j < count && LogShardOf(ops[j].key) == shard) ++j;
    LogShard& ls = *logs_[shard];
    std::lock_guard<std::mutex> lock(ls.apply_mutex);
    for (size_t k = i; k < j; ++k) {
      WalRecord record;
      record.type =
          ops[k].is_delete ? WalRecordType::kDelete : WalRecordType::kPut;
      record.key = ops[k].key;
      record.value = ops[k].value;
      auto appended = ls.writer->Append(record);
      if (!appended.ok()) return appended.status();
      pending[shard] = appended.value();
      if (!ops[k].is_delete) {
        store_.Put(ops[k].key, ops[k].value);
      } else if (store_.Delete(ops[k].key) && erased != nullptr) {
        erased[k] = true;
      }
    }
    i = j;
  }
  return WaitPending(pending, wal_wait_nanos);
}

Status DurableKvStore::CommitTxn(uint64_t tid, const WriteOp* ops,
                                 size_t count, uint64_t* wal_wait_nanos) {
  if (wal_wait_nanos != nullptr) *wal_wait_nanos = 0;
  if (count == 0) return Status::OK();

  std::vector<uint64_t> pending(logs_.size(), 0);
  uint32_t lowest_shard = LogShardOf(ops[0].key);  // ops are key-sorted

  {
    // Shared gate held across ALL staging including the commit record —
    // see txn_gate_ in the header for the two invariants this buys
    // against a concurrent checkpoint.
    std::shared_lock<std::shared_mutex> gate(txn_gate_);

    size_t i = 0;
    while (i < count) {
      const uint32_t shard = LogShardOf(ops[i].key);
      size_t j = i;
      while (j < count && LogShardOf(ops[j].key) == shard) ++j;
      LogShard& ls = *logs_[shard];
      std::lock_guard<std::mutex> lock(ls.apply_mutex);
      WalRecord begin;
      begin.type = WalRecordType::kTxnBegin;
      begin.txn = tid;
      begin.value = j - i;  // fragments in this shard (diagnostics)
      auto appended = ls.writer->Append(begin);
      if (!appended.ok()) return appended.status();
      for (size_t k = i; k < j; ++k) {
        WalRecord frag;
        frag.type = ops[k].is_delete ? WalRecordType::kTxnDelete
                                     : WalRecordType::kTxnPut;
        frag.txn = tid;
        frag.key = ops[k].key;
        frag.value = ops[k].value;
        appended = ls.writer->Append(frag);
        if (!appended.ok()) return appended.status();
        // Speculative visibility, same as Put: the memory install happens
        // now (the caller's stripe locks make it atomic for readers); a
        // crash before the commit record is durable rolls it back.
        if (ops[k].is_delete) {
          store_.Delete(ops[k].key);
        } else {
          store_.Put(ops[k].key, ops[k].value);
        }
        pending[shard] = appended.value();
      }
      i = j;
    }

    // The commit point: one record, in one shard, naming the total
    // fragment count. Recovery treats the transaction as committed only
    // when this record survives and every promised fragment decoded.
    LogShard& cs = *logs_[lowest_shard];
    std::lock_guard<std::mutex> lock(cs.apply_mutex);
    WalRecord commit;
    commit.type = WalRecordType::kTxnCommit;
    commit.txn = tid;
    commit.value = count;
    auto appended = cs.writer->Append(commit);
    if (!appended.ok()) return appended.status();
    pending[lowest_shard] = appended.value();
  }

  // Group-commit wait outside the gate. Durability of the commit record
  // is what makes the transaction durable; fragments in other shards are
  // waited too so the ack implies the whole write-set is replayable, not
  // just provably-aborted.
  return WaitPending(pending, wal_wait_nanos);
}

Status DurableKvStore::WaitPending(const std::vector<uint64_t>& pending,
                                   uint64_t* wal_wait_nanos) {
  // One commit wait per touched shard, whatever the batch size — every
  // record staged there rides the same sync.
  const uint64_t start = NowNanos();
  Status result = Status::OK();
  for (size_t shard = 0; shard < logs_.size(); ++shard) {
    if (pending[shard] == 0) continue;
    const Status st = logs_[shard]->writer->WaitDurable(pending[shard]);
    if (!st.ok() && result.ok()) result = st;
  }
  if (wal_wait_nanos != nullptr) *wal_wait_nanos = NowNanos() - start;
  return result;
}

Status DurableKvStore::Checkpoint() {
  std::lock_guard<std::mutex> ckpt_lock(checkpoint_mutex_);

  CheckpointData data;
  data.marks.resize(logs_.size());
  {
    // Exclusive txn gate across marks AND the scan: no transaction can be
    // mid-commit while either happens, so (1) every transaction is wholly
    // below all marks (its effects are in the scan, its records get
    // truncated) or wholly above (its records survive for recovery to
    // judge), and (2) the scan never captures a write-set whose commit
    // record hasn't been appended. Plain writers keep flowing — the scan
    // stays fuzzy for them, which replay idempotence absorbs.
    std::unique_lock<std::shared_mutex> gate(txn_gate_);
    for (size_t shard = 0; shard < logs_.size(); ++shard) {
      // Under the apply mutex, every op with lsn <= last_lsn has finished
      // its memory apply — the scan below cannot miss it.
      std::lock_guard<std::mutex> lock(logs_[shard]->apply_mutex);
      data.marks[shard] = logs_[shard]->writer->last_lsn();
    }

    store_.RangeScanEntries(0, std::numeric_limits<uint64_t>::max(),
                            &data.entries);
  }

  // The scan is fuzzy: it may contain effects of ops ABOVE the mark that
  // were applied concurrently. Those ops must be in the durable log
  // before the snapshot is installed, otherwise a crash could recover a
  // state containing an op the log never acked (not a prefix). Everything
  // the scan could have seen has lsn <= the shard's last_lsn right now.
  for (size_t shard = 0; shard < logs_.size(); ++shard) {
    LogWriter* writer = logs_[shard]->writer.get();
    HWSTAR_RETURN_IF_ERROR(writer->WaitDurable(writer->last_lsn()));
  }

  HWSTAR_RETURN_IF_ERROR(WriteCheckpoint(backend_, prefix_, data));

  for (size_t shard = 0; shard < logs_.size(); ++shard) {
    HWSTAR_RETURN_IF_ERROR(logs_[shard]->writer->Rotate());
    HWSTAR_RETURN_IF_ERROR(
        logs_[shard]->writer->TruncateThrough(data.marks[shard]));
  }
  return Status::OK();
}

LogWriterStats DurableKvStore::log_stats() const {
  LogWriterStats total;
  for (const auto& shard : logs_) {
    const LogWriterStats s = shard->writer->stats();
    total.records += s.records;
    total.bytes += s.bytes;
    total.groups += s.groups;
    total.rotations += s.rotations;
    total.truncated_segments += s.truncated_segments;
  }
  return total;
}

void DurableKvStore::RegisterMetrics(obs::Registry* registry) const {
  for (size_t shard = 0; shard < logs_.size(); ++shard) {
    logs_[shard]->writer->RegisterMetrics(
        registry, "dur.wal." + std::to_string(shard) + ".");
  }
}

}  // namespace hwstar::dur
