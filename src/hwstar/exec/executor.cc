#include "hwstar/exec/executor.h"

#include <algorithm>

#include "hwstar/common/logging.h"

namespace hwstar::exec {

// Shutdown/submit drain
// ---------------------
// Submit and Shutdown never share a lock; "no accepted task is stranded"
// falls out of state_'s packing (see the header). Acceptance *is* the
// queued++ -- one RMW on the same word that carries the shutdown bit --
// so there is no window where a task has been accepted but is invisible
// to the drain check:
//
//   Submit:   state_ += queued+pending (observes the shutdown bit in the
//             returned value; rolls back and fails if it was set)
//   Shutdown: state_ |= shutdown bit, wake workers, join
//   Worker:   exit only on a single load showing shutdown AND queued == 0
//
// queued is incremented at acceptance and decremented only after a
// worker claims the task from a deque, so queued > 0 covers the entire
// accepted-but-not-yet-pushed window; a worker that reads queued == 0
// with the shutdown bit set has proof the deques are empty, and any
// still-running tasks were claimed by workers that will re-check before
// exiting.

Executor::Executor(uint32_t num_threads) {
  if (num_threads == 0) {
    unsigned hc = std::thread::hardware_concurrency();
    num_threads = hc == 0 ? 1 : hc;
  }
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<WorkerState>());
  }
  threads_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Executor::~Executor() { Shutdown(); }

void Executor::Shutdown() {
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  state_.fetch_or(kShutdownBit);
  { std::lock_guard<std::mutex> lock(wake_mutex_); }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

bool Executor::Submit(Task task, int preferred_worker) {
  const uint64_t prev = state_.fetch_add(kOneQueued + kOnePending);
  if ((prev & kShutdownBit) != 0) {
    // Lost the race with Shutdown: undo the acceptance. The phantom
    // counts only ever delay a drain or WaitIdle, never unblock one
    // early, except at the pending 1 -> 0 edge -- which this rollback
    // may be the one to cross, so it runs the same idle wake as task
    // completion.
    const uint64_t before = state_.fetch_sub(kOneQueued + kOnePending);
    if (PendingOf(before) == 1 && idle_waiters_.load() != 0) {
      { std::lock_guard<std::mutex> lock(wake_mutex_); }
      idle_cv_.notify_all();
    }
    HWSTAR_LOG(Warning) << "Executor::Submit after shutdown; task dropped";
    return false;
  }

  uint32_t target;
  if (preferred_worker >= 0 &&
      static_cast<uint32_t>(preferred_worker) < workers_.size()) {
    target = static_cast<uint32_t>(preferred_worker);
  } else {
    // Per-thread cursor: round-robin distribution without a shared RMW
    // on every submit. Seeded from the thread id so distinct submitters
    // start at different workers.
    static thread_local uint32_t rr_cursor = static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    target = rr_cursor++ % static_cast<uint32_t>(workers_.size());
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->deque.push_back(std::move(task));
  }
  // Edge-triggered wake: only the submit that turned the queue nonempty
  // notifies, and only when a worker is (or is about to be) asleep.
  // Liveness: a worker registers in sleepers_ under wake_mutex_ *before*
  // it evaluates the wait predicate, so in the seq_cst total order either
  // our queued++ is visible to its predicate (it will not sleep) or its
  // sleepers_++ is visible here (we will wake it); a non-edge submit saw
  // an unclaimed task already in the counter, which guarantees some
  // worker is awake or being woken, and awake workers propagate wakes to
  // siblings while surplus remains (see TryRunOne). The empty critical
  // section closes the registered-but-not-yet-waiting window. In the
  // steady busy state Submit touches no wake state at all.
  if (QueuedOf(prev) == 0 && sleepers_.load() != 0) {
    { std::lock_guard<std::mutex> lock(wake_mutex_); }
    work_cv_.notify_one();
  }
  return true;
}

bool Executor::TryRunOne(uint32_t id) {
  // Up to kLocalBatch tasks are claimed from the worker's own deque under
  // one lock acquisition, and the bookkeeping atomics (state_, counters)
  // are amortized across the batch -- at fine task granularity the
  // per-task scheduler cost is what separates this design from a central
  // queue. Steals take half the victim's deque (capped at kLocalBatch)
  // from the front: the coldest work, enough to halve the imbalance in
  // one trip, and the rest stays behind for other thieves. At most
  // kLocalBatch claimed-but-unrun tasks per worker are invisible to
  // thieves at any moment.
  constexpr size_t kLocalBatch = 8;
  WorkerState& self = *workers_[id];
  Task tasks[kLocalBatch];
  size_t count = 0;
  bool stolen = false;
  // Local pop from the back (most recently pushed: cache-warm).
  {
    std::lock_guard<std::mutex> lock(self.mutex);
    while (count < kLocalBatch && !self.deque.empty()) {
      tasks[count++] = std::move(self.deque.back());
      self.deque.pop_back();
    }
  }
  if (count == 0) {
    const uint32_t n = static_cast<uint32_t>(workers_.size());
    for (uint32_t k = 1; k < n && count == 0; ++k) {
      const uint32_t victim = (id + k) % n;
      std::lock_guard<std::mutex> lock(workers_[victim]->mutex);
      std::deque<Task>& dq = workers_[victim]->deque;
      const size_t take = std::min((dq.size() + 1) / 2, kLocalBatch);
      for (size_t i = 0; i < take; ++i) {
        tasks[count++] = std::move(dq.front());
        dq.pop_front();
      }
      stolen = take != 0;
    }
    if (count == 0) {
      failed_steals_.Inc();
      return false;
    }
  }
  {
    const uint64_t prev = state_.fetch_sub(count * kOneQueued);
    // Wake propagation: submits past the empty->nonempty edge do not
    // notify, so a worker that claims a batch and sees surplus left
    // behind recruits one more sleeper. Each recruit repeats the check,
    // fanning out until the backlog or the sleepers run out.
    if (QueuedOf(prev) - count > 0 && sleepers_.load() != 0) {
      { std::lock_guard<std::mutex> lock(wake_mutex_); }
      work_cv_.notify_one();
    }
  }
  if (stolen) {
    steals_.Add(count);
  } else {
    local_pops_.Add(count);
  }

  for (size_t i = 0; i < count; ++i) tasks[i](id);
  tasks_run_.Add(count);
  // The pending half drops only after the whole batch ran, so WaitIdle
  // can return late by a batch but never early.
  const uint64_t prev = state_.fetch_sub(count * kOnePending);
  if (PendingOf(prev) == count && idle_waiters_.load() != 0) {
    // Last task out wakes WaitIdle (same registration protocol as the
    // submit/sleep pair: waiters appear in idle_waiters_ before they
    // read pending_, so this check and their predicate cannot both miss).
    { std::lock_guard<std::mutex> lock(wake_mutex_); }
    idle_cv_.notify_all();
  }
  return true;
}

void Executor::WorkerLoop(uint32_t id) {
  for (;;) {
    if (TryRunOne(id)) continue;
    const uint64_t s = state_.load();
    if ((s & kShutdownBit) != 0) {
      // Drain: shutdown flag and queued count arrive in one load, so
      // queued == 0 here proves no accepted task is still unclaimed
      // (see the drain comment at the top).
      if (QueuedOf(s) == 0) return;
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    sleepers_.fetch_add(1);
    work_cv_.wait(lock, [this] {
      const uint64_t cur = state_.load(std::memory_order_relaxed);
      return (cur & kShutdownBit) != 0 || QueuedOf(cur) > 0;
    });
    sleepers_.fetch_sub(1);
  }
}

void Executor::WaitIdle() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  idle_waiters_.fetch_add(1);
  idle_cv_.wait(lock, [this] { return PendingOf(state_.load()) == 0; });
  idle_waiters_.fetch_sub(1);
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  s.local_pops = local_pops_.value();
  s.steals = steals_.value();
  s.failed_steals = failed_steals_.value();
  return s;
}

}  // namespace hwstar::exec
