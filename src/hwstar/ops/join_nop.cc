#include "hwstar/ops/join_nop.h"

#include <atomic>
#include <mutex>

#include "hwstar/exec/morsel.h"
#include "hwstar/ops/hash_table.h"

namespace hwstar::ops {

namespace {

/// Probes every row of `probe` against the built table through its
/// batched ProbeBatch kernel, so a batch's table misses stay in flight
/// together (probe_kernels.h). Serial without a pool, morsel-parallel
/// with one; parallel pair output order is unspecified (matches are a
/// multiset).
JoinResult ProbeAll(const LinearProbeTable& table, const Relation& probe,
                    const NoPartitionJoinOptions& options) {
  JoinResult result;
  const uint64_t n = probe.size();

  // Probes rows [begin, end); accumulates into *matches and (when
  // materializing) *pairs. Shared by the serial and morsel-parallel paths.
  auto probe_range = [&](uint64_t begin, uint64_t end, uint64_t* matches,
                         std::vector<JoinPair>* pairs) {
    const uint64_t* keys = probe.keys.data();
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
  LinearProbeTable table(build.size());
  if (options.pool != nullptr) {
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
  return ProbeAll(table, probe, options);
}

}  // namespace hwstar::ops
