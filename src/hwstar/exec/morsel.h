#ifndef HWSTAR_EXEC_MORSEL_H_
#define HWSTAR_EXEC_MORSEL_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "hwstar/exec/executor.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::exec {

/// A half-open range of row indices handed to one worker at a time.
struct Morsel {
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t size() const { return end - begin; }
};

/// Atomic-counter morsel dispenser over [0, total): workers grab the next
/// `morsel_size` rows until the input is exhausted. Dynamic scheduling at
/// morsel granularity absorbs both data skew and interference from
/// co-running work -- the elasticity argument of morsel-driven parallelism.
class MorselDispenser {
 public:
  /// morsel_size 0 reads the tune::MorselRows knob at construction.
  MorselDispenser(uint64_t total, uint64_t morsel_size = 0)
      : total_(total),
        morsel_size_(morsel_size == 0 ? tune::MorselRows().Get()
                                      : morsel_size) {}

  /// Grabs the next morsel; returns false when the input is exhausted.
  bool Next(Morsel* out) {
    // Relaxed-load fast path: once the input is exhausted, idle workers
    // polling Next would otherwise keep fetch_add-ing and bounce the
    // counter's cache line between cores for no work. A plain load keeps
    // the line shared. (The RMW below still decides ownership; two
    // workers passing the check race to it safely.)
    if (next_.load(std::memory_order_relaxed) >= total_) return false;
    uint64_t begin = next_.fetch_add(morsel_size_, std::memory_order_relaxed);
    if (begin >= total_) return false;
    out->begin = begin;
    uint64_t end = begin + morsel_size_;
    out->end = end > total_ ? total_ : end;
    return true;
  }

  uint64_t total() const { return total_; }
  uint64_t morsel_size() const { return morsel_size_; }

 private:
  uint64_t total_;
  uint64_t morsel_size_;
  std::atomic<uint64_t> next_{0};
};

/// Runs `body(worker_id, morsel)` over [0, total) on the executor,
/// morsel-driven; blocks until done. One task is submitted per worker;
/// each loops on the shared dispenser.
void ParallelForMorsels(Executor* executor, uint64_t total,
                        uint64_t morsel_size,
                        const std::function<void(uint32_t, Morsel)>& body);

/// Static range split: divides [0, total) into exactly num_threads
/// contiguous chunks (the hardware-oblivious baseline scheduling; suffers
/// under skew and interference).
void ParallelForStatic(Executor* executor, uint64_t total,
                       const std::function<void(uint32_t, Morsel)>& body);

}  // namespace hwstar::exec

#endif  // HWSTAR_EXEC_MORSEL_H_
