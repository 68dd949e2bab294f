#ifndef HWSTAR_SYNC_EPOCH_H_
#define HWSTAR_SYNC_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace hwstar::sync {

/// Epoch-based memory reclamation (EBR, the McKenney RCU/epoch design):
/// the piece that makes latch-free reads safe. Writers that unlink a node
/// from a shared structure cannot free it immediately -- a reader may
/// still be traversing it -- so they *retire* it to an EpochManager,
/// which defers the free until every reader that could possibly hold the
/// pointer has moved on.
///
/// The protocol:
///  - A global epoch counter advances when every currently-pinned thread
///    has been observed in the current epoch.
///  - Readers pin the current epoch for the duration of a read (Guard
///    RAII; pinning is two stores to the thread's own cache-line-padded
///    slot -- readers never write a shared line, so read throughput
///    scales with cores).
///  - Retired objects are tagged with the epoch at retire time and freed
///    once the global epoch has advanced twice past it: any reader that
///    could have seen the object was pinned at or before the retire
///    epoch, and each advance requires unanimity among pinned threads.
///
/// Retire lists are per-thread (no shared-line writes on the retire path
/// either); a thread sweeps its own list when it exceeds the retire
/// batch, and attempts an epoch advance every `epoch_advance_interval`
/// retires (both knobs live in the tune registry — tune::EpochRetireBatch
/// / tune::EpochAdvanceInterval).
/// A thread that exits with unreclaimed retirees flushes them to a
/// shared orphan list that other threads sweep opportunistically.
///
/// Threads register lazily on first use and a thread's slot is released
/// at thread exit. A thread that is not pinned never delays reclamation.
class EpochManager {
 public:
  /// Maximum concurrently registered threads (slots are statically
  /// allocated so the advance scan is a flat array walk).
  static constexpr uint32_t kMaxThreads = 512;

  /// The process-wide reclamation domain used by KvStore and the index
  /// structures. Never destroyed (its memory is reachable until exit, so
  /// leak checkers stay quiet and thread-exit hooks can always reach it).
  static EpochManager& Global();

  EpochManager();
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII epoch pin: every latch-free read must hold one across its whole
  /// traversal (KvStore's read path does this; direct index users that
  /// read concurrently with writers must too). Nestable and cheap: a
  /// thread-local lookup plus two uncontended atomic stores.
  class Guard {
   public:
    Guard() : mgr_(&Global()) { mgr_->Pin(); }
    explicit Guard(EpochManager& mgr) : mgr_(&mgr) { mgr_->Pin(); }
    ~Guard() { mgr_->Unpin(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochManager* mgr_;
  };

  /// Enters/leaves a read-side critical region (prefer Guard).
  void Pin();
  void Unpin();

  /// Whether the calling thread currently holds a pin on this manager.
  bool IsPinned() const;

  /// Defers `deleter(ptr)` until two epoch advances past the current
  /// epoch. `bytes` is an accounting hint for the memory high-water
  /// stats (pass 0 if unknown). The object must already be unreachable
  /// for new readers (unlink before retire).
  void Retire(void* ptr, void (*deleter)(void*), size_t bytes);

  /// Typed convenience: retires `ptr` for `delete`.
  template <typename T>
  void RetireObject(T* ptr) {
    Retire(
        ptr, [](void* p) { delete static_cast<T*>(p); }, sizeof(T));
  }

  /// Current global epoch.
  uint64_t epoch() const;

  /// Attempts one epoch advance; false when some pinned thread has not
  /// yet been observed in the current epoch.
  bool TryAdvance();

  /// Attempts an advance and sweeps the calling thread's retire list plus
  /// the orphan list; returns the number of objects freed. Safe to call
  /// any time (frees only what the epoch rule proves unreachable).
  uint64_t ReclaimSome();

  /// Quiescent-state reclamation for tests and shutdown: advances and
  /// sweeps until nothing more can be freed from this thread's list and
  /// the orphans. With no concurrent pins this frees everything retired
  /// so far (other threads' lists are flushed to orphans at thread exit).
  uint64_t ReclaimAll();

  struct Stats {
    uint64_t epoch = 0;
    uint64_t retired_outstanding = 0;  ///< retired, not yet freed
    uint64_t retired_bytes = 0;        ///< accounting bytes outstanding
    uint64_t retired_bytes_hwm = 0;    ///< high-water mark of the above
    uint64_t freed_total = 0;
    uint64_t advances = 0;
  };
  Stats stats() const;

 private:
  struct Core;
  struct ThreadRec;

  /// The calling thread's registrations (one per domain it has touched);
  /// flushed and unregistered by its destructor at thread exit.
  static std::vector<std::unique_ptr<ThreadRec>>& TlsRecs();

  ThreadRec& Rec();

  std::shared_ptr<Core> core_;
};

}  // namespace hwstar::sync

#endif  // HWSTAR_SYNC_EPOCH_H_
