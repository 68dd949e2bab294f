#include "hwstar/exec/morsel.h"

namespace hwstar::exec {

void ParallelForMorsels(Executor* executor, uint64_t total,
                        uint64_t morsel_size,
                        const std::function<void(uint32_t, Morsel)>& body) {
  MorselDispenser dispenser(total, morsel_size);
  const uint32_t n = executor->num_threads();
  for (uint32_t t = 0; t < n; ++t) {
    executor->Submit(
        [&dispenser, &body](uint32_t worker_id) {
          Morsel m;
          while (dispenser.Next(&m)) body(worker_id, m);
        },
        /*preferred_worker=*/static_cast<int>(t));
  }
  executor->WaitIdle();
}

void ParallelForStatic(Executor* executor, uint64_t total,
                       const std::function<void(uint32_t, Morsel)>& body) {
  const uint32_t n = executor->num_threads();
  const uint64_t chunk = (total + n - 1) / n;
  for (uint32_t t = 0; t < n; ++t) {
    uint64_t begin = static_cast<uint64_t>(t) * chunk;
    if (begin >= total) break;
    uint64_t end = begin + chunk > total ? total : begin + chunk;
    executor->Submit(
        [&body, begin, end](uint32_t worker_id) {
          body(worker_id, Morsel{begin, end});
        },
        /*preferred_worker=*/static_cast<int>(t));
  }
  executor->WaitIdle();
}

}  // namespace hwstar::exec
