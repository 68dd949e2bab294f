#include "hwstar/ops/join_nop.h"

#include <atomic>
#include <memory>
#include <mutex>

#include "hwstar/exec/morsel.h"
#include "hwstar/ops/bloom_filter.h"

namespace hwstar::ops {

namespace {

/// Bloom pre-filter chunk width: big enough to amortize the compaction
/// loop, small enough that the scratch arrays live comfortably on the
/// worker's stack (and in its L1).
constexpr size_t kProbeChunk = 256;

/// Shared probe driver over any table with a batched ProbeBatch kernel.
/// `bloom` (optional) rejects definite non-matches before the table is
/// touched; survivors are compacted and fed to the table's batched probe
/// so a chunk's table misses stay in flight together (probe_kernels.h).
/// With a ChainedTable the batch kernel is AMAC, which completes keys out
/// of order, so pair output order is unspecified (matches are a multiset).
template <typename Table>
JoinResult ProbeAll(const Table& table, const Relation& probe,
                    const NoPartitionJoinOptions& options,
                    const BlockedBloomFilter* bloom) {
  JoinResult result;
  const uint64_t n = probe.size();

  // Probes rows [begin, end); accumulates into *matches and (when
  // materializing) *pairs. Shared by the serial and morsel-parallel paths.
  auto probe_range = [&](uint64_t begin, uint64_t end, uint64_t* matches,
                         std::vector<JoinPair>* pairs) {
    const uint64_t* keys = probe.keys.data();
    if (bloom == nullptr) {
      if (pairs != nullptr) {
        *matches += table.ProbeBatch(
            keys + begin, end - begin, [&](size_t j, uint64_t build_payload) {
              pairs->push_back(
                  JoinPair{build_payload, probe.payloads[begin + j]});
            });
      } else {
        *matches +=
            table.ProbeBatch(keys + begin, end - begin, [](size_t, uint64_t) {});
      }
      return;
    }
    // Bloom pre-filter a chunk at a time, compact the survivors (keeping
    // their original row ids for payload lookup), then batch-probe them.
    bool may[kProbeChunk];
    uint64_t pass_keys[kProbeChunk];
    uint64_t pass_rows[kProbeChunk];
    for (uint64_t base = begin; base < end; base += kProbeChunk) {
      const size_t m =
          static_cast<size_t>(end - base < kProbeChunk ? end - base
                                                       : kProbeChunk);
      bloom->MayContainBatch(keys + base, m, may);
      size_t live = 0;
      for (size_t j = 0; j < m; ++j) {
        if (!may[j]) continue;
        pass_keys[live] = keys[base + j];
        pass_rows[live] = base + j;
        ++live;
      }
      if (live == 0) continue;
      if (pairs != nullptr) {
        *matches += table.ProbeBatch(
            pass_keys, live, [&](size_t j, uint64_t build_payload) {
              pairs->push_back(
                  JoinPair{build_payload, probe.payloads[pass_rows[j]]});
            });
      } else {
        *matches += table.ProbeBatch(pass_keys, live, [](size_t, uint64_t) {});
      }
    }
  };

  if (options.pool == nullptr) {
    probe_range(0, n, &result.matches,
                options.materialize ? &result.pairs : nullptr);
    return result;
  }

  // Parallel probe: the table is read-only, so workers only synchronize on
  // output.
  std::atomic<uint64_t> matches{0};
  std::mutex pairs_mutex;
  exec::ParallelForMorsels(
      options.pool, n, /*morsel_size=*/0,
      [&](uint32_t /*worker*/, exec::Morsel m) {
        uint64_t local_matches = 0;
        std::vector<JoinPair> local_pairs;
        probe_range(m.begin, m.end, &local_matches,
                    options.materialize ? &local_pairs : nullptr);
        matches.fetch_add(local_matches, std::memory_order_relaxed);
        if (!local_pairs.empty()) {
          std::lock_guard<std::mutex> lock(pairs_mutex);
          result.pairs.insert(result.pairs.end(), local_pairs.begin(),
                              local_pairs.end());
        }
      });
  result.matches = matches.load(std::memory_order_relaxed);
  return result;
}

}  // namespace

JoinResult NoPartitionHashJoin(const Relation& build, const Relation& probe,
                               const NoPartitionJoinOptions& options) {
  std::unique_ptr<BlockedBloomFilter> bloom;
  if (options.use_bloom) {
    bloom = std::make_unique<BlockedBloomFilter>(build.size(),
                                                 options.bloom_bits_per_key);
    // The Bloom filter is not thread-safe; populate it up front.
    for (uint64_t i = 0; i < build.size(); ++i) bloom->Add(build.keys[i]);
  }

  LinearProbeTable table(build.size(), options.load_factor);
  if (options.parallel_build && options.pool != nullptr) {
    exec::ParallelForMorsels(
        options.pool, build.size(), /*morsel_size=*/0,
        [&](uint32_t /*worker*/, exec::Morsel m) {
          table.InsertShared(build.keys.data() + m.begin,
                             build.payloads.data() + m.begin,
                             m.end - m.begin);
        });
  } else {
    for (uint64_t i = 0; i < build.size(); ++i) {
      table.Insert(build.keys[i], build.payloads[i]);
    }
  }
  return ProbeAll(table, probe, options, bloom.get());
}

JoinResult NoPartitionChainedJoin(const Relation& build, const Relation& probe,
                                  const NoPartitionJoinOptions& options) {
  ChainedTable table(build.size());
  std::unique_ptr<BlockedBloomFilter> bloom;
  if (options.use_bloom) {
    bloom = std::make_unique<BlockedBloomFilter>(build.size(),
                                                 options.bloom_bits_per_key);
  }
  for (uint64_t i = 0; i < build.size(); ++i) {
    table.Insert(build.keys[i], build.payloads[i]);
    if (bloom) bloom->Add(build.keys[i]);
  }
  return ProbeAll(table, probe, options, bloom.get());
}

}  // namespace hwstar::ops
