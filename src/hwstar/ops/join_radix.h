#ifndef HWSTAR_OPS_JOIN_RADIX_H_
#define HWSTAR_OPS_JOIN_RADIX_H_

#include <cstdint>
#include <vector>

#include "hwstar/exec/executor.h"
#include "hwstar/ops/relation.h"

namespace hwstar::ops {

/// Options for the radix join.
struct RadixJoinOptions {
  uint32_t radix_bits = 10;   ///< total fan-out = 2^radix_bits partitions
  uint32_t num_passes = 1;    ///< 1 or 2 partitioning passes
  bool materialize = false;   ///< collect JoinPairs (else count only)
  exec::Executor* pool = nullptr;  ///< parallel per-partition join phase
  /// Stage tuples in cache-line-sized per-partition buffers during the
  /// scatter (software write combining); identical output, fewer
  /// TLB/fill-buffer stalls at high fan-out. Applies to 1-pass runs.
  bool buffered_scatter = false;
};

/// Detailed phase timing of a radix join run (seconds).
struct RadixJoinTiming {
  double partition_seconds = 0;
  double join_seconds = 0;
};

/// The hardware-conscious parallel radix join (PRO-style): both relations
/// are first range-partitioned by radix bits of the key hash so that each
/// co-partition's build side fits in cache (and, with 2-pass partitioning,
/// so that each pass's write fan-out stays within TLB reach). Per-partition
/// hash joins then run entirely cache-resident. This is the algorithm whose
/// superiority over the no-partitioning join -- published by the keynote's
/// author in the same ICDE 2013 proceedings -- anchors the paper's
/// "hardware still matters" argument; E2/A1 reproduce its shape.
JoinResult RadixHashJoin(const Relation& build, const Relation& probe,
                         const RadixJoinOptions& options = {},
                         RadixJoinTiming* timing = nullptr);

/// Internal building block, exposed for tests and benches: partitions a
/// relation into 2^radix_bits buckets by key hash (single pass). Outputs
/// the scattered relation and the bucket boundary offsets
/// (offsets[i]..offsets[i+1] is partition i; size 2^radix_bits + 1).
void RadixPartition(const Relation& input, uint32_t radix_bits,
                    uint32_t shift, Relation* output,
                    std::vector<uint64_t>* offsets);

/// Recommended radix bits so each build co-partition of `build_size` tuples
/// fits in a cache of `cache_bytes` (16 bytes/tuple plus the hash table).
uint32_t RecommendRadixBits(uint64_t build_size, uint64_t cache_bytes);

}  // namespace hwstar::ops

#endif  // HWSTAR_OPS_JOIN_RADIX_H_
