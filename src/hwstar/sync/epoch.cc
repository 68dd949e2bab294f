#include "hwstar/sync/epoch.h"

#include <algorithm>

#include "hwstar/common/macros.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::sync {

namespace {

struct RetiredEntry {
  void* ptr;
  void (*deleter)(void*);
  size_t bytes;
  uint64_t epoch;  // global epoch at retire time
};

}  // namespace

/// Shared state of one reclamation domain. Owned by shared_ptr so that a
/// thread that outlives the EpochManager object (its thread-local
/// registration holds a reference) can still flush its retire list at
/// thread exit instead of dangling.
struct EpochManager::Core {
  /// One slot per registered thread. Padded to a cache line: pinning is
  /// the read hot path's only write, and it must not share a line with
  /// another thread's slot (the E11 lesson).
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{0};  // 0 = not pinned
    std::atomic<bool> used{false};   // reserved by a live thread
  };

  std::atomic<uint64_t> global_epoch{1};
  std::atomic<uint32_t> slot_hwm{0};  // upper bound on slots ever reserved
  Slot slots[kMaxThreads];

  std::mutex orphan_mu;
  std::vector<RetiredEntry> orphans;  // flushed from exiting threads

  // Accounting (relaxed: monotonic counters, not a consistent cut).
  std::atomic<uint64_t> outstanding{0};
  std::atomic<uint64_t> outstanding_bytes{0};
  std::atomic<uint64_t> bytes_hwm{0};
  std::atomic<uint64_t> freed{0};
  std::atomic<uint64_t> advances{0};

  ~Core() {
    // Last reference dropped: no registered threads remain, so every
    // retired object is reclaimable regardless of epoch tags.
    for (const RetiredEntry& e : orphans) e.deleter(e.ptr);
  }

  uint32_t ReserveSlot() {
    for (uint32_t i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      if (slots[i].used.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
        uint32_t hwm = slot_hwm.load(std::memory_order_relaxed);
        while (hwm < i + 1 && !slot_hwm.compare_exchange_weak(
                                  hwm, i + 1, std::memory_order_acq_rel)) {
        }
        return i;
      }
    }
    HWSTAR_CHECK(false && "EpochManager: more than kMaxThreads registered");
    return 0;
  }

  bool TryAdvance() {
    uint64_t e = global_epoch.load(std::memory_order_seq_cst);
    const uint32_t hwm = slot_hwm.load(std::memory_order_acquire);
    for (uint32_t i = 0; i < hwm; ++i) {
      const uint64_t v = slots[i].epoch.load(std::memory_order_seq_cst);
      if (v != 0 && v != e) return false;  // pinned in an older epoch
    }
    if (global_epoch.compare_exchange_strong(e, e + 1,
                                             std::memory_order_seq_cst)) {
      advances.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;  // someone else advanced; their advance counts
  }

  /// Frees every entry of `list` whose retire epoch is two advances old;
  /// compacts the survivors in place. Returns the number freed.
  uint64_t Sweep(std::vector<RetiredEntry>* list) {
    const uint64_t g = global_epoch.load(std::memory_order_acquire);
    uint64_t freed_count = 0;
    uint64_t freed_bytes = 0;
    size_t keep = 0;
    for (size_t i = 0; i < list->size(); ++i) {
      const RetiredEntry& e = (*list)[i];
      if (e.epoch + 2 <= g) {
        e.deleter(e.ptr);
        ++freed_count;
        freed_bytes += e.bytes;
      } else {
        (*list)[keep++] = e;
      }
    }
    list->resize(keep);
    if (freed_count != 0) {
      outstanding.fetch_sub(freed_count, std::memory_order_relaxed);
      outstanding_bytes.fetch_sub(freed_bytes, std::memory_order_relaxed);
      freed.fetch_add(freed_count, std::memory_order_relaxed);
    }
    return freed_count;
  }

  uint64_t SweepOrphans() {
    std::unique_lock<std::mutex> lock(orphan_mu, std::try_to_lock);
    if (!lock.owns_lock()) return 0;  // another thread is already on it
    return Sweep(&orphans);
  }
};

/// Per-(thread, domain) registration: slot index, pin nesting depth, and
/// the thread's private retire list. Held in a thread_local vector whose
/// destructor flushes and unregisters at thread exit.
struct EpochManager::ThreadRec {
  std::shared_ptr<Core> core;
  uint32_t slot = 0;
  uint32_t nesting = 0;
  uint64_t retires_since_advance = 0;
  std::vector<RetiredEntry> list;

  ~ThreadRec() {
    if (core == nullptr) return;
    HWSTAR_CHECK(nesting == 0 && "thread exited while epoch-pinned");
    if (!list.empty()) {
      std::lock_guard<std::mutex> lock(core->orphan_mu);
      core->orphans.insert(core->orphans.end(), list.begin(), list.end());
    }
    core->slots[slot].epoch.store(0, std::memory_order_release);
    core->slots[slot].used.store(false, std::memory_order_release);
  }

  ThreadRec() = default;
  ThreadRec(ThreadRec&&) = default;
  ThreadRec& operator=(ThreadRec&&) = default;
};

std::vector<std::unique_ptr<EpochManager::ThreadRec>>& EpochManager::TlsRecs() {
  thread_local std::vector<std::unique_ptr<ThreadRec>> recs;
  return recs;
}

EpochManager::ThreadRec& EpochManager::Rec() {
  auto& recs = TlsRecs();
  for (const auto& rec : recs) {
    if (rec->core.get() == core_.get()) return *rec;
  }
  auto rec = std::make_unique<ThreadRec>();
  rec->core = core_;
  rec->slot = core_->ReserveSlot();
  recs.push_back(std::move(rec));
  return *recs.back();
}

EpochManager& EpochManager::Global() {
  static EpochManager* g = new EpochManager();  // deliberately leaked
  return *g;
}

EpochManager::EpochManager() : core_(std::make_shared<Core>()) {}

EpochManager::~EpochManager() = default;  // Core lives until last ThreadRec

void EpochManager::Pin() {
  ThreadRec& r = Rec();
  if (r.nesting++ != 0) return;
  Core::Slot& slot = core_->slots[r.slot];
  uint64_t e = core_->global_epoch.load(std::memory_order_seq_cst);
  for (;;) {
    slot.epoch.store(e, std::memory_order_seq_cst);
    // Re-sync if the global epoch moved between the load and the store:
    // a pin left at a stale epoch would block every future advance until
    // unpin. One iteration suffices in the common case.
    const uint64_t g = core_->global_epoch.load(std::memory_order_seq_cst);
    if (g == e) return;
    e = g;
  }
}

void EpochManager::Unpin() {
  ThreadRec& r = Rec();
  HWSTAR_DCHECK(r.nesting > 0);
  if (--r.nesting == 0) {
    core_->slots[r.slot].epoch.store(0, std::memory_order_release);
  }
}

bool EpochManager::IsPinned() const {
  for (const auto& rec : TlsRecs()) {
    if (rec->core.get() == core_.get()) return rec->nesting > 0;
  }
  return false;
}

void EpochManager::Retire(void* ptr, void (*deleter)(void*), size_t bytes) {
  ThreadRec& r = Rec();
  const uint64_t e = core_->global_epoch.load(std::memory_order_acquire);
  r.list.push_back(RetiredEntry{ptr, deleter, bytes, e});

  core_->outstanding.fetch_add(1, std::memory_order_relaxed);
  const uint64_t now_bytes =
      core_->outstanding_bytes.fetch_add(bytes, std::memory_order_relaxed) +
      bytes;
  uint64_t hwm = core_->bytes_hwm.load(std::memory_order_relaxed);
  while (now_bytes > hwm && !core_->bytes_hwm.compare_exchange_weak(
                                hwm, now_bytes, std::memory_order_relaxed)) {
  }

  // Cadence: attempt an advance every epoch_advance_interval retires and
  // sweep once the private list reaches the retire batch. Both bound the
  // retire-list footprint without putting an advance scan on every op.
  if (++r.retires_since_advance >= tune::EpochAdvanceInterval().Get()) {
    r.retires_since_advance = 0;
    core_->TryAdvance();
  }
  if (r.list.size() >= tune::EpochRetireBatch().Get()) {
    core_->Sweep(&r.list);
    core_->SweepOrphans();
  }
}

uint64_t EpochManager::epoch() const {
  return core_->global_epoch.load(std::memory_order_acquire);
}

bool EpochManager::TryAdvance() { return core_->TryAdvance(); }

uint64_t EpochManager::ReclaimSome() {
  ThreadRec& r = Rec();
  core_->TryAdvance();
  return core_->Sweep(&r.list) + core_->SweepOrphans();
}

uint64_t EpochManager::ReclaimAll() {
  uint64_t total = 0;
  // Two successful advances age every already-retired entry past the
  // reclamation horizon; the third round sweeps stragglers retired
  // between rounds. Pinned readers simply bound what gets freed.
  for (int round = 0; round < 3; ++round) {
    core_->TryAdvance();
    total += core_->Sweep(&Rec().list);
    {
      std::lock_guard<std::mutex> lock(core_->orphan_mu);
      total += core_->Sweep(&core_->orphans);
    }
  }
  return total;
}

EpochManager::Stats EpochManager::stats() const {
  Stats s;
  s.epoch = core_->global_epoch.load(std::memory_order_relaxed);
  s.retired_outstanding = core_->outstanding.load(std::memory_order_relaxed);
  s.retired_bytes = core_->outstanding_bytes.load(std::memory_order_relaxed);
  s.retired_bytes_hwm = core_->bytes_hwm.load(std::memory_order_relaxed);
  s.freed_total = core_->freed.load(std::memory_order_relaxed);
  s.advances = core_->advances.load(std::memory_order_relaxed);
  return s;
}

}  // namespace hwstar::sync
