#ifndef HWSTAR_OPS_JOIN_NOP_H_
#define HWSTAR_OPS_JOIN_NOP_H_

#include "hwstar/exec/executor.h"
#include "hwstar/ops/relation.h"

namespace hwstar::ops {

/// Options for the no-partitioning join.
struct NoPartitionJoinOptions {
  bool materialize = false;   ///< collect JoinPairs (else count only)
  /// When set, the build runs morsel-parallel through
  /// `LinearProbeTable::InsertShared` (CAS-claimed slots, the classic
  /// parallel-NPO build) and the probe runs morsel-parallel too.
  exec::Executor* pool = nullptr;
};

/// The "hardware-oblivious" no-partitioning hash join (NPO): build one
/// shared hash table over R, probe it with every tuple of S. Simple and
/// parallelism-friendly, but once |R| exceeds the last-level cache every
/// probe is a random DRAM access -- exactly the failure mode the paper
/// says oblivious software walks into. Serves as the baseline for E2.
JoinResult NoPartitionHashJoin(const Relation& build, const Relation& probe,
                               const NoPartitionJoinOptions& options = {});

}  // namespace hwstar::ops

#endif  // HWSTAR_OPS_JOIN_NOP_H_
