#ifndef HWSTAR_HWSTAR_H_
#define HWSTAR_HWSTAR_H_

/// Umbrella header: pulls in the whole public API. Fine-grained headers
/// remain the recommended includes for production use; this exists for
/// exploration and examples.

// Foundations.
#include "hwstar/common/bits.h"
#include "hwstar/common/hash.h"
#include "hwstar/common/logging.h"
#include "hwstar/common/random.h"
#include "hwstar/common/status.h"
#include "hwstar/common/timer.h"

// Hardware description and discovery.
#include "hwstar/hw/machine_model.h"
#include "hwstar/hw/topology.h"

// Simulated hardware substrate.
#include "hwstar/sim/cache_sim.h"
#include "hwstar/sim/coherence.h"
#include "hwstar/sim/energy_model.h"
#include "hwstar/sim/flash_model.h"
#include "hwstar/sim/hierarchy.h"
#include "hwstar/sim/memory_trace.h"
#include "hwstar/sim/numa_model.h"
#include "hwstar/sim/offload_model.h"
#include "hwstar/sim/prefetcher.h"
#include "hwstar/sim/tlb.h"

// Memory management.
#include "hwstar/mem/aligned.h"

// Synchronization: epoch-based reclamation and optimistic latches.
#include "hwstar/sync/epoch.h"
#include "hwstar/sync/optlock.h"

// Self-tuning: the knob substrate and the offline calibrator.
#include "hwstar/tune/calibrator.h"
#include "hwstar/tune/tunable.h"

// Parallel execution.
#include "hwstar/exec/executor.h"
#include "hwstar/exec/morsel.h"

// Observability: bounded lock-free telemetry.
#include "hwstar/obs/histogram.h"
#include "hwstar/obs/metric.h"
#include "hwstar/obs/registry.h"

// Storage layouts and compression.
#include "hwstar/storage/column.h"
#include "hwstar/storage/column_store.h"
#include "hwstar/storage/compression.h"
#include "hwstar/storage/pax.h"
#include "hwstar/storage/row_store.h"
#include "hwstar/storage/table.h"
#include "hwstar/storage/types.h"

// Operators and index structures.
#include "hwstar/ops/aggregation.h"
#include "hwstar/ops/art.h"
#include "hwstar/ops/bloom_filter.h"
#include "hwstar/ops/btree.h"
#include "hwstar/ops/hash_table.h"
#include "hwstar/ops/hot_cold.h"
#include "hwstar/ops/join_nop.h"
#include "hwstar/ops/join_radix.h"
#include "hwstar/ops/join_sort_merge.h"
#include "hwstar/ops/partition.h"
#include "hwstar/ops/relation.h"
#include "hwstar/ops/selection.h"
#include "hwstar/ops/sort.h"

// Embedded key-value store.
#include "hwstar/kv/kv_store.h"
#include "hwstar/kv/tiered_store.h"

// Query engine.
#include "hwstar/engine/expression.h"
#include "hwstar/engine/fused.h"
#include "hwstar/engine/parallel.h"
#include "hwstar/engine/plan.h"
#include "hwstar/engine/planner.h"
#include "hwstar/engine/vectorized.h"
#include "hwstar/engine/volcano.h"

// Streaming: continuous queries on the Executor.
#include "hwstar/stream/join.h"
#include "hwstar/stream/operator.h"
#include "hwstar/stream/pipeline.h"
#include "hwstar/stream/source.h"
#include "hwstar/stream/stream_batch.h"
#include "hwstar/stream/watermark.h"
#include "hwstar/stream/window.h"

// Request-serving front end.
#include "hwstar/svc/admission.h"
#include "hwstar/svc/overload_policy.h"
#include "hwstar/svc/request.h"
#include "hwstar/svc/service.h"

// Workload generation and measurement.
#include "hwstar/perf/report.h"
#include "hwstar/workload/distributions.h"
#include "hwstar/workload/tpch_like.h"
#include "hwstar/workload/ycsb_like.h"

#endif  // HWSTAR_HWSTAR_H_
