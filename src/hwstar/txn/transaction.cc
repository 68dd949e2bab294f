#include "hwstar/txn/transaction.h"

#include <algorithm>
#include <thread>

#include "hwstar/common/hash.h"
#include "hwstar/common/macros.h"

namespace hwstar::txn {

namespace {

/// Validation-lock stripes (power of two). Each key hashes to one
/// OptLock; coarser striping only raises false conflicts (aborts), never
/// misses a real one.
constexpr uint32_t kLockStripes = 1u << 16;
static_assert((kLockStripes & (kLockStripes - 1)) == 0);

/// Optimistic-read attempts per Get before the transaction dooms itself
/// rather than spin on a hot stripe.
constexpr uint32_t kGetRetryLimit = 64;

/// TryWriteLock attempts per stripe at commit before aborting; bounded so
/// a committer convoying on a durability wait aborts its rivals instead
/// of stalling them.
constexpr uint32_t kLockSpinLimit = 128;

}  // namespace

TxnManager::TxnManager(dur::DurableKvStore* db)
    : db_(db), stripes_(new sync::OptLock[kLockStripes]) {}

Transaction TxnManager::Begin() {
  begun_.Inc();
  return Transaction(this);
}

uint32_t TxnManager::StripeOf(uint64_t key) const {
  // Mix64 decorrelates the range-sharded key space from the stripe table:
  // without it, TPC-C's hot district keys would all share low-entropy
  // high bits and collide into a handful of stripes.
  return static_cast<uint32_t>(Mix64(key)) & (kLockStripes - 1);
}

TxnStats TxnManager::stats() const {
  TxnStats s;
  s.begun = begun_.value();
  s.committed = committed_.value();
  s.aborted_lock = aborted_lock_.value();
  s.aborted_validation = aborted_validation_.value();
  s.aborted_doomed = aborted_doomed_.value();
  return s;
}

void TxnManager::RegisterMetrics(obs::Registry* registry) const {
  registry->RegisterCounter("txn.begun", &begun_);
  registry->RegisterCounter("txn.committed", &committed_);
  registry->RegisterCounter("txn.aborted.lock", &aborted_lock_);
  registry->RegisterCounter("txn.aborted.validation", &aborted_validation_);
  registry->RegisterCounter("txn.aborted.doomed", &aborted_doomed_);
}

Status Transaction::Get(uint64_t key, uint64_t* value, bool* found) {
  *found = false;
  if (doomed_) return Status::Aborted("transaction doomed");

  // Read-your-writes: buffered state wins over the store.
  auto wit = write_set_.find(key);
  if (wit != write_set_.end()) {
    if (!wit->second.is_delete) {
      *value = wit->second.value;
      *found = true;
    }
    return Status::OK();
  }

  const uint32_t stripe = mgr_->StripeOf(key);
  sync::OptLock& lock = mgr_->stripes_[stripe];
  for (uint32_t attempt = 0; attempt < kGetRetryLimit; ++attempt) {
    // A held stripe usually means a committer is inside its durability
    // wait (microseconds, not nanoseconds) — yield instead of burning the
    // retry budget in a tight loop.
    if (attempt >= 4) std::this_thread::yield();
    bool need_restart = false;
    const uint64_t version = lock.ReadLockOrRestart(&need_restart);
    if (need_restart) continue;  // a committer holds the stripe; re-sample
    auto got = mgr_->db_->kv()->Get(key);
    lock.CheckOrRestart(version, &need_restart);
    if (need_restart) continue;  // a commit interleaved; value may be torn

    // The read is consistent at `version`. A second read through the same
    // stripe must see the SAME version, or the two reads straddle a
    // commit and no serial order can explain them — doom now rather than
    // let Commit install results computed from an inconsistent snapshot.
    auto [rit, inserted] = read_set_.try_emplace(stripe, version);
    if (!inserted && rit->second != version) {
      doomed_ = true;
      return Status::Aborted("inconsistent re-read of stripe");
    }
    if (got.ok()) {
      *value = got.value();
      *found = true;
    } else if (got.status().code() != StatusCode::kNotFound) {
      return got.status();
    }
    return Status::OK();
  }
  doomed_ = true;
  return Status::Aborted("stripe too contended to read");
}

void Transaction::Put(uint64_t key, uint64_t value) {
  write_set_[key] = BufferedWrite{value, false};
}

void Transaction::Delete(uint64_t key) {
  write_set_[key] = BufferedWrite{0, true};
}

Status Transaction::Commit(uint64_t* wal_wait_nanos) {
  if (wal_wait_nanos != nullptr) *wal_wait_nanos = 0;
  HWSTAR_CHECK(!finished_);
  finished_ = true;

  if (doomed_) {
    mgr_->aborted_doomed_.Inc();
    return Status::Aborted("transaction doomed before commit");
  }

  // Read-only fast path: no locks, no WAL — just prove every stripe read
  // through is still at its recorded version, i.e. the reads form a
  // consistent snapshot that is still current.
  if (write_set_.empty()) {
    for (const auto& [stripe, version] : read_set_) {
      if (mgr_->stripes_[stripe].Version() != version) {
        mgr_->aborted_validation_.Inc();
        return Status::Aborted("read-set validation failed");
      }
    }
    mgr_->committed_.Inc();
    return Status::OK();
  }

  // Phase 1: lock write-set stripes in ascending stripe order — the
  // canonical order makes lock-order cycles (deadlock) impossible between
  // committers. TryWriteLock is bounded: a stripe held across a rival's
  // durability wait is grounds to abort, not to convoy behind it.
  std::vector<uint32_t> lock_order;
  lock_order.reserve(write_set_.size());
  for (const auto& [key, op] : write_set_) {
    lock_order.push_back(mgr_->StripeOf(key));
  }
  std::sort(lock_order.begin(), lock_order.end());
  lock_order.erase(std::unique(lock_order.begin(), lock_order.end()),
                   lock_order.end());

  size_t acquired = 0;
  for (; acquired < lock_order.size(); ++acquired) {
    sync::OptLock& lock = mgr_->stripes_[lock_order[acquired]];
    bool locked = false;
    for (uint32_t spin = 0; spin < kLockSpinLimit; ++spin) {
      if (lock.TryWriteLock()) {
        locked = true;
        break;
      }
      if (spin >= 4) std::this_thread::yield();
    }
    if (!locked) break;
  }
  if (acquired < lock_order.size()) {
    for (size_t i = 0; i < acquired; ++i) {
      mgr_->stripes_[lock_order[i]].WriteUnlockAborted();
    }
    mgr_->aborted_lock_.Inc();
    return Status::Aborted("write-set stripe lock timed out");
  }

  // Phase 2: validate the read set. A stripe we hold ourselves reads as
  // recorded + kLockedBit (our own lock acquisition); any other
  // difference means a rival committed in between and our reads are
  // stale.
  for (const auto& [stripe, version] : read_set_) {
    const uint64_t current = mgr_->stripes_[stripe].Version();
    const bool self_locked = std::binary_search(
        lock_order.begin(), lock_order.end(), stripe);
    const uint64_t expected =
        self_locked ? version + sync::OptLock::kLockedBit : version;
    if (current != expected) {
      for (uint32_t s : lock_order) {
        mgr_->stripes_[s].WriteUnlockAborted();
      }
      mgr_->aborted_validation_.Inc();
      return Status::Aborted("read-set validation failed");
    }
  }

  // Phase 3: install. Memory effects become visible here (under our
  // stripe locks), and the WAL framing makes the write-set atomic across
  // crash recovery.
  std::vector<dur::WriteOp> ops;
  ops.reserve(write_set_.size());
  for (const auto& [key, op] : write_set_) {
    ops.push_back(dur::WriteOp{key, op.value, op.is_delete});
  }
  const uint64_t tid = mgr_->db_->AllocateTxnId();
  const Status st =
      mgr_->db_->CommitTxn(tid, ops.data(), ops.size(), wal_wait_nanos);

  // Phase 4: bump-and-release AFTER the commit record is durable. Holding
  // the stripes through the durability wait means no rival can read our
  // values and reach its own durable commit before ours is on disk — the
  // cross-shard commit-dependency anomaly a per-shard WAL would otherwise
  // allow.
  for (uint32_t s : lock_order) {
    mgr_->stripes_[s].WriteUnlock();
  }
  if (!st.ok()) return st;  // WAL poisoned; effects applied, ack withheld
  mgr_->committed_.Inc();
  return Status::OK();
}

void Transaction::Abort() {
  finished_ = true;
  read_set_.clear();
  write_set_.clear();
}

void Transaction::Reset() {
  mgr_->begun_.Inc();
  doomed_ = false;
  finished_ = false;
  read_set_.clear();
  write_set_.clear();
}

}  // namespace hwstar::txn
