#include "hwstar/ops/join_radix.h"

#include <atomic>
#include <mutex>

#include "hwstar/common/bits.h"
#include "hwstar/common/hash.h"
#include "hwstar/common/macros.h"
#include "hwstar/common/timer.h"
#include "hwstar/ops/hash_table.h"
#include "hwstar/ops/partition.h"

namespace hwstar::ops {

namespace {

/// Partition id of a key for the given bit window. The pre-hash decouples
/// partitioning from key distribution (dense keys would otherwise map
/// entire value ranges to one partition).
HWSTAR_ALWAYS_INLINE uint64_t PartitionOf(uint64_t key, uint32_t radix_bits,
                                          uint32_t shift) {
  return bits::ExtractBits(Mix64(key), shift, radix_bits);
}

/// Joins co-partition [rb, re) x [sb, se) with a cache-resident hash table.
void JoinPartition(const Relation& r, uint64_t rb, uint64_t re,
                   const Relation& s, uint64_t sb, uint64_t se,
                   bool materialize, uint64_t* matches,
                   std::vector<JoinPair>* pairs) {
  if (rb == re || sb == se) return;
  LinearProbeTable table(re - rb);
  for (uint64_t i = rb; i < re; ++i) {
    table.Insert(r.keys[i], r.payloads[i]);
  }
  // Batched probe: even with a cache-resident table, the group kernel
  // overlaps whatever misses remain (first touch, L1 conflict evictions)
  // and keeps the partition loop branch-light (probe_kernels.h).
  const uint64_t* probe_keys = s.keys.data() + sb;
  const size_t probe_n = static_cast<size_t>(se - sb);
  if (materialize) {
    *matches += table.ProbeBatch(
        probe_keys, probe_n, [&](size_t j, uint64_t build_payload) {
          pairs->push_back(JoinPair{build_payload, s.payloads[sb + j]});
        });
  } else {
    *matches += table.ProbeBatch(probe_keys, probe_n, [](size_t, uint64_t) {});
  }
}

}  // namespace

void RadixPartition(const Relation& input, uint32_t radix_bits,
                    uint32_t shift, Relation* output,
                    std::vector<uint64_t>* offsets) {
  const uint64_t fanout = uint64_t{1} << radix_bits;
  const uint64_t n = input.size();
  offsets->assign(fanout + 1, 0);

  // Pass A: histogram.
  for (uint64_t i = 0; i < n; ++i) {
    ++(*offsets)[PartitionOf(input.keys[i], radix_bits, shift) + 1];
  }
  // Prefix sum -> start offsets.
  for (uint64_t p = 1; p <= fanout; ++p) (*offsets)[p] += (*offsets)[p - 1];

  // Pass B: scatter.
  output->keys.resize(n);
  output->payloads.resize(n);
  std::vector<uint64_t> cursor(offsets->begin(), offsets->end() - 1);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t p = PartitionOf(input.keys[i], radix_bits, shift);
    const uint64_t dst = cursor[p]++;
    output->keys[dst] = input.keys[i];
    output->payloads[dst] = input.payloads[i];
  }
}

uint32_t RecommendRadixBits(uint64_t build_size, uint64_t cache_bytes) {
  if (build_size == 0 || cache_bytes == 0) return 0;
  // Tuples (16B) plus a half-full 16B-slot table: ~48 bytes per build tuple.
  const uint64_t bytes_per_tuple = 48;
  uint64_t total = build_size * bytes_per_tuple;
  if (total <= cache_bytes) return 0;
  uint64_t parts = (total + cache_bytes - 1) / cache_bytes;
  return bits::Log2Ceil(parts);
}

JoinResult RadixHashJoin(const Relation& build, const Relation& probe,
                         const RadixJoinOptions& options,
                         RadixJoinTiming* timing) {
  HWSTAR_CHECK(options.num_passes == 1 || options.num_passes == 2);
  HWSTAR_CHECK(options.radix_bits <= 24);
  JoinResult result;
  WallTimer timer;

  Relation r_part, s_part;
  std::vector<uint64_t> r_off, s_off;

  if (options.radix_bits == 0) {
    // Degenerate case: no partitioning; fall through to one big join.
    r_part = build;
    s_part = probe;
    r_off = {0, build.size()};
    s_off = {0, probe.size()};
  } else if (options.num_passes == 1) {
    if (options.buffered_scatter) {
      RadixPartitionBuffered(build, options.radix_bits, 0, &r_part, &r_off);
      RadixPartitionBuffered(probe, options.radix_bits, 0, &s_part, &s_off);
    } else {
      RadixPartition(build, options.radix_bits, 0, &r_part, &r_off);
      RadixPartition(probe, options.radix_bits, 0, &s_part, &s_off);
    }
  } else {
    // Two passes: low bits first, then high bits within each partition.
    // Each pass has fan-out 2^(bits/2), keeping the write-target set within
    // TLB reach -- the whole point of multi-pass partitioning.
    const uint32_t bits1 = options.radix_bits / 2;
    const uint32_t bits2 = options.radix_bits - bits1;
    Relation r_tmp, s_tmp;
    std::vector<uint64_t> r_off1, s_off1;
    RadixPartition(build, bits1, 0, &r_tmp, &r_off1);
    RadixPartition(probe, bits1, 0, &s_tmp, &s_off1);

    const uint64_t fanout1 = uint64_t{1} << bits1;
    const uint64_t fanout = uint64_t{1} << options.radix_bits;
    r_part.keys.resize(r_tmp.size());
    r_part.payloads.resize(r_tmp.size());
    s_part.keys.resize(s_tmp.size());
    s_part.payloads.resize(s_tmp.size());
    r_off.assign(fanout + 1, 0);
    s_off.assign(fanout + 1, 0);

    // Sub-partition each pass-1 bucket. The global partition id is
    // (p1 << bits2) | p2 so that logical partition order equals physical
    // layout order (p1-major), making `off` a plain monotone offset array.
    // R and S use the same id mapping, so co-partitions stay aligned.
    auto second_pass = [&](const Relation& tmp,
                           const std::vector<uint64_t>& off1, Relation* out,
                           std::vector<uint64_t>* off) {
      const uint64_t fanout2 = uint64_t{1} << bits2;
      for (uint64_t p1 = 0; p1 < fanout1; ++p1) {
        const uint64_t begin = off1[p1], end = off1[p1 + 1];
        // Histogram of the sub-partitions.
        std::vector<uint64_t> hist(fanout2, 0);
        for (uint64_t i = begin; i < end; ++i) {
          ++hist[PartitionOf(tmp.keys[i], bits2, bits1)];
        }
        std::vector<uint64_t> cursor(fanout2, 0);
        uint64_t acc = begin;
        for (uint64_t p2 = 0; p2 < fanout2; ++p2) {
          cursor[p2] = acc;
          (*off)[(p1 << bits2) | p2] = acc;
          acc += hist[p2];
        }
        for (uint64_t i = begin; i < end; ++i) {
          const uint64_t p2 = PartitionOf(tmp.keys[i], bits2, bits1);
          const uint64_t dst = cursor[p2]++;
          out->keys[dst] = tmp.keys[i];
          out->payloads[dst] = tmp.payloads[i];
        }
      }
      (*off)[fanout] = tmp.size();
    };
    second_pass(r_tmp, r_off1, &r_part, &r_off);
    second_pass(s_tmp, s_off1, &s_part, &s_off);
  }

  if (timing != nullptr) timing->partition_seconds = timer.ElapsedSeconds();
  timer.Restart();

  const uint64_t fanout = r_off.size() - 1;
  if (options.pool == nullptr) {
    for (uint64_t p = 0; p < fanout; ++p) {
      JoinPartition(r_part, r_off[p], r_off[p + 1], s_part, s_off[p],
                    s_off[p + 1], options.materialize, &result.matches,
                    &result.pairs);
    }
  } else {
    std::atomic<uint64_t> matches{0};
    std::mutex pairs_mutex;
    for (uint64_t p = 0; p < fanout; ++p) {
      options.pool->Submit([&, p](uint32_t /*worker*/) {
        uint64_t local_matches = 0;
        std::vector<JoinPair> local_pairs;
        JoinPartition(r_part, r_off[p], r_off[p + 1], s_part, s_off[p],
                      s_off[p + 1], options.materialize, &local_matches,
                      &local_pairs);
        matches.fetch_add(local_matches, std::memory_order_relaxed);
        if (!local_pairs.empty()) {
          std::lock_guard<std::mutex> lock(pairs_mutex);
          result.pairs.insert(result.pairs.end(), local_pairs.begin(),
                              local_pairs.end());
        }
      });
    }
    options.pool->WaitIdle();
    result.matches = matches.load(std::memory_order_relaxed);
  }

  if (timing != nullptr) timing->join_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace hwstar::ops
