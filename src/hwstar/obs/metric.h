#ifndef HWSTAR_OBS_METRIC_H_
#define HWSTAR_OBS_METRIC_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "hwstar/mem/aligned.h"
#include "hwstar/obs/histogram.h"

namespace hwstar::obs {

/// A monotonic counter sharded across cache-line-padded slots, so hot
/// concurrent increments don't ping-pong one line between cores (the
/// per-thread split counter of McKenney's counting chapter). Add is a
/// single relaxed fetch_add on the caller's shard; value() sums shards
/// and is exact once writers quiesce. Thread-safe.
class Counter {
 public:
  /// `shards` is rounded up to a power of two; 0 = auto (enough for the
  /// machine's hardware threads, capped at 16).
  explicit Counter(uint32_t shards = 0);

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    shards_[ThreadShardIndex() & shard_mask_].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

  uint64_t value() const {
    uint64_t total = 0;
    for (uint32_t s = 0; s <= shard_mask_; ++s) {
      total += shards_[s].v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(mem::kCacheLineBytes) Shard {
    std::atomic<uint64_t> v{0};
  };
  uint32_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace hwstar::obs

#endif  // HWSTAR_OBS_METRIC_H_
