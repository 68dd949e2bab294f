#ifndef HWSTAR_STREAM_JOIN_H_
#define HWSTAR_STREAM_JOIN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "hwstar/mem/aligned.h"
#include "hwstar/ops/bloom_filter.h"
#include "hwstar/ops/hash_table.h"
#include "hwstar/stream/operator.h"

namespace hwstar::stream {

/// How a join match combines the stream value with the build payload into
/// the output row's value.
enum class JoinCombine : uint8_t {
  kBuildValue = 0,  ///< output value = build payload (pure enrichment)
  kSum = 1,         ///< output value = stream value + build payload
  kProduct = 2,     ///< output value = stream value * build payload
};

/// A streaming hash join against a static build side (stream-table /
/// enrichment join): the build relation is hashed once at construction,
/// and every stream micro-batch probes it, emitting one output row per
/// match (inner join; duplicate build keys produce duplicate outputs).
///
/// The probe side is where streams spend their cycles, so it runs through
/// the ops batched probe kernels: `LinearProbeTable::ProbeBatch` (group
/// prefetching) keeps up to G independent probe misses in flight per
/// batch, carrying the E18 memory-level-parallelism win into continuous
/// queries. An optional blocked-Bloom prefilter (`MayContainBatch` +
/// survivor compaction, the join_nop discipline) pays when most stream
/// keys miss the build side. Both kernels preserve scalar probe order, so
/// output rows appear in input-row order — what the bit-identity test
/// relies on.
/// Construction knobs for StreamTableJoin.
struct StreamJoinOptions {
    JoinCombine combine = JoinCombine::kBuildValue;
    /// Probe through the batched kernels (false = scalar Probe loop; the
    /// bench baseline showing what batching buys).
    bool use_batched_kernels = true;
    /// Prefilter probes through a blocked Bloom filter over the build
    /// keys; worth it when the stream mostly misses the build side.
    bool bloom_prefilter = false;
    /// Build-table load factor (LinearProbeTable).
    double load_factor = 0.5;
};

class StreamTableJoin : public Transform {
 public:
  /// Hashes `n` build (key, payload) pairs. Keys may repeat.
  StreamTableJoin(const uint64_t* build_keys, const int64_t* build_payloads,
                  size_t n, const StreamJoinOptions& options = {});

  void Bind(uint32_t partitions) override;
  void Apply(uint32_t partition, StreamBatch* batch) override;

  uint64_t build_rows() const { return table_.size(); }
  /// Build-side footprint — the residency knob of the E19 join bench.
  uint64_t MemoryBytes() const {
    return table_.MemoryBytes() + (bloom_ ? bloom_->MemoryBytes() : 0);
  }

 private:
  int64_t Combine(int64_t stream_value, int64_t payload) const;

  /// Per-partition probe scratch (the output batch under construction),
  /// cache-line aligned: two partitions' scratch must not share a line
  /// (both rewritten per batch). Bloom chunk buffers live on the stack in
  /// Apply, the join_nop discipline.
  struct alignas(mem::kCacheLineBytes) Scratch {
    StreamBatch out;
  };

  StreamJoinOptions options_;
  ops::LinearProbeTable table_;
  std::unique_ptr<ops::BlockedBloomFilter> bloom_;
  std::vector<Scratch> scratch_;
};

}  // namespace hwstar::stream

#endif  // HWSTAR_STREAM_JOIN_H_
