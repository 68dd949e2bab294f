#ifndef HWSTAR_EXEC_EXECUTOR_H_
#define HWSTAR_EXEC_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "hwstar/mem/aligned.h"
#include "hwstar/obs/metric.h"

namespace hwstar::exec {

/// Where the executor's workers found their tasks. `local_pops + steals`
/// equals the number of tasks run; a nonzero steal count under a skewed
/// submission pattern is the load-balancing working.
struct ExecutorStats {
  uint64_t local_pops = 0;     ///< popped from the worker's own deque
  uint64_t steals = 0;         ///< taken from another worker's deque
  uint64_t failed_steals = 0;  ///< full victim scans that found nothing
};

/// The one scheduler for all parallel work in hwstar.
///
/// Each worker owns a deque: it pushes and pops at the back (LIFO,
/// cache-warm) and steals from the *front* of a victim's deque (FIFO --
/// the coldest work, and the end the owner is not touching) when its own
/// is empty. This is the scheduling structure of morsel-driven query
/// parallelism (Leis et al.): locality by default, load balance under
/// skew, no global queue lock serializing dispatch.
///
/// On top of the stealing core the Executor carries production
/// semantics: `Submit` fails cleanly once shutdown has begun (the queue
/// is unbounded: svc bounds and sheds requests in its own AdmissionQueue
/// before any thread runs them), `Shutdown` drains accepted tasks
/// before joining, `WaitIdle` blocks until every accepted task has
/// finished, and obs counters (tasks run, local pops, steals) back
/// `tasks_run()` and `stats()`.
class Executor {
 public:
  using Task = std::function<void(uint32_t worker_id)>;

  /// Spawns `num_threads` workers (0 means hardware concurrency).
  explicit Executor(uint32_t num_threads = 0);

  /// Calls Shutdown().
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues a task on `preferred_worker`'s deque (round-robin when
  /// negative or out of range); returns immediately. May be called from
  /// any thread, including from inside tasks. Returns false (dropping
  /// the task, with a logged warning) once shutdown has begun, so
  /// callers racing teardown fail cleanly instead of stranding work.
  bool Submit(Task task, int preferred_worker = -1);

  /// Stops accepting new tasks, drains already-accepted ones, and joins
  /// the workers. Idempotent and safe to race with submitters; the
  /// destructor calls it.
  void Shutdown();

  /// Blocks until every accepted task has completed (queues empty and
  /// all workers idle).
  void WaitIdle();

  /// Tasks accepted but not yet claimed by a worker.
  size_t queue_depth() const {
    return QueuedOf(state_.load(std::memory_order_relaxed));
  }

  /// Tasks workers have finished running.
  uint64_t tasks_run() const { return tasks_run_.value(); }

  /// Where tasks were found, aggregated across workers.
  ExecutorStats stats() const;

  uint32_t num_threads() const {
    return static_cast<uint32_t>(threads_.size());
  }

 private:
  /// One worker's deque, padded so two workers' locks and queue heads
  /// never share a cache line.
  struct alignas(mem::kCacheLineBytes) WorkerState {
    std::mutex mutex;
    std::deque<Task> deque;
  };

  void WorkerLoop(uint32_t id);
  bool TryRunOne(uint32_t id);

  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::thread> threads_;

  // The whole lifecycle lives in one word: bits 0-31 count tasks accepted
  // but not yet claimed (drives queue_depth(), the workers' sleep
  // predicate and the shutdown drain check), bits 32-62 tasks accepted
  // but not yet finished (drives WaitIdle), bit 63 is the shutdown flag.
  // Packing buys two things. Every submit, batch claim and batch finish
  // is a single shared RMW -- at fine task granularity the dispatch path
  // is the product, so each saved atomic shows up in E17. And because
  // acceptance and queued++ are the *same* RMW on the same word as the
  // shutdown bit, the drain proof is a one-liner: an accepted task holds
  // queued > 0 from its acceptance until a worker claims it, so a worker
  // that reads (shutdown && queued == 0) in one load has proof the
  // deques it is about to abandon are empty (see WorkerLoop in the .cc).
  static constexpr uint64_t kOneQueued = 1;
  static constexpr uint64_t kOnePending = uint64_t{1} << 32;
  static constexpr uint64_t kShutdownBit = uint64_t{1} << 63;
  static constexpr uint64_t QueuedOf(uint64_t state) {
    return state & 0xffffffffu;
  }
  static constexpr uint64_t PendingOf(uint64_t state) {
    return (state >> 32) & 0x7fffffffu;
  }

  std::atomic<uint64_t> state_{0};  ///< packed queued/pending/shutdown
  // Registration counts for the two condition variables. Sleepers and
  // idle waiters register under wake_mutex_ *before* evaluating their
  // predicate, so the fast paths (Submit, task completion) can skip the
  // wake mutex entirely whenever these read zero -- the common case when
  // the executor is busy.
  std::atomic<uint32_t> sleepers_{0};      ///< workers parked on work_cv_
  std::atomic<uint32_t> idle_waiters_{0};  ///< threads parked in WaitIdle

  std::mutex wake_mutex_;            ///< guards both cv wait predicates
  std::condition_variable work_cv_;  ///< workers sleep here when empty
  std::condition_variable idle_cv_;  ///< WaitIdle sleeps here
  std::mutex join_mutex_;            ///< serializes concurrent Shutdowns

  obs::Counter tasks_run_;
  obs::Counter local_pops_;
  obs::Counter steals_;
  obs::Counter failed_steals_;
};

}  // namespace hwstar::exec

#endif  // HWSTAR_EXEC_EXECUTOR_H_
