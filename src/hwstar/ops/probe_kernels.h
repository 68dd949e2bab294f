#ifndef HWSTAR_OPS_PROBE_KERNELS_H_
#define HWSTAR_OPS_PROBE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "hwstar/common/macros.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::ops {

/// Memory-level-parallelism drivers for batched point lookups.
///
/// Every point lookup in the library is a dependent-load chain: hash ->
/// bucket line -> (maybe) next line. Executed one key at a time, each
/// cache miss in the chain is paid at full DRAM latency before the next
/// access is even issued, so throughput is bounded by latency, not
/// bandwidth. Modern cores can track ~10 outstanding misses per core;
/// these drivers restructure a *batch* of independent lookups so that
/// many chains are in flight at once, converting the probe phase from
/// latency-bound to miss-queue-bound (Balkesen et al., and the AMAC line
/// of work). Two interleaving disciplines are provided:
///
///  - Group Prefetching (GroupPrefetchLoop): process keys in groups of G.
///    Stage 1 hashes all G keys and issues a prefetch for each key's
///    first probe target; stage 2 walks each key's (short) chain. Best
///    when the chain almost always terminates within the prefetched
///    line(s): open-addressing tables at moderate load factors, blocked
///    bloom filters.
///
///  - AMAC (AmacLoop): a ring of K in-flight probe state machines,
///    advanced round-robin one stage at a time; each stage issues the
///    prefetch for its next dependent access and yields. A finished
///    machine is immediately refilled with the next key, so K misses stay
///    outstanding regardless of how long individual chains are. Best for
///    variable-length walks: chained buckets, multi-level index descents.
///
/// Group size is a compile-time constant inside the kernels (the staging
/// arrays must live in registers / L1 and the inner loops must unroll),
/// dispatched from a runtime value by WithProbeGroup. Callers pass 0 to
/// use the process-wide default: the tune::ProbeGroupSize knob, which the
/// tune::Calibrator re-measures. The knob is re-read on every batch, so a
/// calibration install takes effect mid-run; results are bit-identical
/// across a flip because group width only changes which misses overlap,
/// never what is probed.
///
/// Interaction with optimistic reads (hwstar/sync): the index FindBatch
/// kernels run these loops inside an OLC retry scope -- version
/// validation failures restart the *whole group's* descent, not a single
/// key's, so the interleaving discipline (and therefore the results and
/// the miss-overlap shape) is identical whether or not a writer is live.
/// The kernels themselves are oblivious to this: they see the same
/// lane-step structure either way, which is what keeps the latched and
/// latch-free paths bit-identical.

/// Group sizes the batched kernels are compiled for. Runtime requests are
/// rounded up to the next compiled size (and capped at the largest).
inline constexpr uint32_t kProbeGroupSizes[] = {4, 8, 16, 32};

/// Invokes body(std::integral_constant<uint32_t, G>{}) with G the
/// compiled group size for `group_size` (0 = process default).
template <typename Body>
HWSTAR_ALWAYS_INLINE decltype(auto) WithProbeGroup(uint32_t group_size,
                                                   Body&& body) {
  if (group_size == 0) {
    group_size = static_cast<uint32_t>(tune::ProbeGroupSize().Get());
  }
  if (group_size <= 4) return body(std::integral_constant<uint32_t, 4>{});
  if (group_size <= 8) return body(std::integral_constant<uint32_t, 8>{});
  if (group_size <= 16) return body(std::integral_constant<uint32_t, 16>{});
  return body(std::integral_constant<uint32_t, 32>{});
}

/// Group Prefetching driver. For each full group of G indexes,
/// stage1(lane, i) runs for all lanes (compute the probe target, stash
/// per-lane state, issue the prefetch), then stage2(lane, i) consumes in
/// the same lane order — by which time the G prefetches have had G-1
/// stage-1 executions to overlap with. The ragged tail (< G keys) runs
/// stage1 immediately followed by stage2 per key, i.e. the scalar path,
/// so results are defined for every n. Lane order is index order:
/// observable side effects of stage2 happen in exactly the order a scalar
/// loop would produce them.
template <uint32_t G, typename Stage1, typename Stage2>
HWSTAR_ALWAYS_INLINE void GroupPrefetchLoop(size_t n, Stage1&& stage1,
                                            Stage2&& stage2) {
  size_t i = 0;
  for (; i + G <= n; i += G) {
    for (uint32_t lane = 0; lane < G; ++lane) stage1(lane, i + lane);
    for (uint32_t lane = 0; lane < G; ++lane) stage2(lane, i + lane);
  }
  for (; i < n; ++i) {
    stage1(0, i);
    stage2(0, i);
  }
}

/// AMAC driver: K probe state machines advanced round-robin. The Job type
/// supplies:
///
///   struct State { ... };            // default-constructible
///   void Start(State&, size_t i);    // begin key i: hash + first prefetch
///   bool Step(State&);               // advance one stage, issuing the
///                                    // prefetch for the next dependent
///                                    // access; false when the key is done
///
/// Between a prefetch issued in one Step and the load that consumes it in
/// the next, up to K-1 other machines execute — that interval is the
/// latency-hiding window. Finished machines are refilled from the input
/// stream immediately, so the ring stays full until fewer than K keys
/// remain. Keys complete out of order; per-key results must be written to
/// per-key slots (or be order-insensitive, like a global match count).
template <uint32_t K, typename Job>
void AmacLoop(size_t n, Job&& job) {
  using State = typename std::decay_t<Job>::State;
  State ring[K];
  bool active[K] = {};
  size_t next = 0;
  uint32_t live = 0;
  const uint32_t width = static_cast<uint32_t>(n < K ? n : K);
  for (uint32_t k = 0; k < width; ++k) {
    job.Start(ring[k], next++);
    active[k] = true;
    ++live;
  }
  while (live > 0) {
    for (uint32_t k = 0; k < width; ++k) {
      if (!active[k]) continue;
      if (job.Step(ring[k])) continue;
      if (next < n) {
        job.Start(ring[k], next++);
      } else {
        active[k] = false;
        --live;
      }
    }
  }
}

}  // namespace hwstar::ops

#endif  // HWSTAR_OPS_PROBE_KERNELS_H_
