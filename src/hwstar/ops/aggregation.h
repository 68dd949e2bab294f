#ifndef HWSTAR_OPS_AGGREGATION_H_
#define HWSTAR_OPS_AGGREGATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "hwstar/exec/morsel.h"

namespace hwstar::ops {

/// One group of a grouped aggregate.
struct GroupSum {
  uint64_t key;
  int64_t sum;
  uint64_t count;
};

/// Options for grouped aggregation.
struct HashAggregateOptions {
  /// Partition-first aggregation: radix-partition the input so each
  /// partition's group table is cache-resident (the hardware-conscious
  /// variant). 0 disables partitioning.
  uint32_t radix_bits = 0;
  exec::Executor* pool = nullptr;  ///< parallel per-partition aggregation
};

/// SUM/COUNT per key over parallel key/value arrays. Results are returned
/// sorted by key for deterministic comparison. With many distinct groups
/// the naive single-table variant misses cache on every update; the
/// partitioned variant restores locality -- same story as the joins, shown
/// in E2's sibling ablation.
std::vector<GroupSum> HashAggregate(std::span<const uint64_t> keys,
                                    std::span<const int64_t> values,
                                    const HashAggregateOptions& options = {});

/// Plain (ungrouped) sum: the bandwidth-bound kernel used by the scaling
/// experiments. Explicitly data-parallel on the active hwstar::simd
/// backend; bit-identical to the sequential loop (mod-2^64 accumulation
/// is reassociation-exact).
int64_t Sum(std::span<const int64_t> values);

/// Columnar min/max on the active simd backend. Empty input returns the
/// identity (INT64_MAX for Min, INT64_MIN for Max).
int64_t Min(std::span<const int64_t> values);
int64_t Max(std::span<const int64_t> values);

}  // namespace hwstar::ops

#endif  // HWSTAR_OPS_AGGREGATION_H_
