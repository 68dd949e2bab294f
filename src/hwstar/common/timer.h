#ifndef HWSTAR_COMMON_TIMER_H_
#define HWSTAR_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace hwstar {

/// Nanoseconds on the process's one monotonic clock (steady_clock): the
/// timestamp every deadline, latency and pacing interval is measured on.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic wall-clock stopwatch with nanosecond resolution.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  /// Resets the epoch to now.
  void Restart() { start_ = Clock::now(); }

  /// Nanoseconds elapsed since construction or the last Restart().
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  /// Seconds elapsed as a double.
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hwstar

#endif  // HWSTAR_COMMON_TIMER_H_
