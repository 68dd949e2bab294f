// A6 (ablation) -- explicit memory-level parallelism in the probe phase.
// Random probes of a DRAM-resident (64MB) hash table, with software
// prefetching of the home slot `distance` keys ahead
// (CountMatchesBatch's distance-pipelined knob). Expected shape:
// throughput rises from distance 0 as more misses are put in flight
// explicitly, peaks around the machine's miss-queue depth (~8-16), and
// declines slowly beyond it (prefetches evicted before use). On an
// in-cache table the prefetch is pure overhead -- the knob only matters
// when the structure misses, which is the paper's point: the right code
// depends on where the data lands in the hierarchy. This sweep is the
// *ablation* that exposes the machine's miss-queue depth; the production
// batched kernels are the group-prefetch / AMAC FindBatch & ProbeBatch
// family built on ops/probe_kernels.h, whose group-size analogue of this
// sweep is measured end to end in bench_e18_mlp_probe. Also includes the
// CAS-parallel shared build vs serial build.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "hwstar/exec/executor.h"
#include "hwstar/ops/hash_table.h"
#include "hwstar/workload/distributions.h"

namespace {

using hwstar::ops::LinearProbeTable;

constexpr uint64_t kBigBuild = 1 << 21;    // 64MB table: DRAM
constexpr uint64_t kSmallBuild = 1 << 14;  // 512KB table: cache-resident
constexpr uint64_t kProbes = 4 << 20;

struct Tables {
  std::unique_ptr<LinearProbeTable> big;
  std::unique_ptr<LinearProbeTable> small;
  std::vector<uint64_t> big_probes;
  std::vector<uint64_t> small_probes;
};

const Tables& Get() {
  static Tables* t = [] {
    auto* tables = new Tables();
    auto big_rel = hwstar::workload::MakeBuildRelation(kBigBuild, 71);
    tables->big = std::make_unique<LinearProbeTable>(kBigBuild);
    for (uint64_t i = 0; i < kBigBuild; ++i) {
      tables->big->Insert(big_rel.keys[i], big_rel.payloads[i]);
    }
    auto small_rel = hwstar::workload::MakeBuildRelation(kSmallBuild, 72);
    tables->small = std::make_unique<LinearProbeTable>(kSmallBuild);
    for (uint64_t i = 0; i < kSmallBuild; ++i) {
      tables->small->Insert(small_rel.keys[i], small_rel.payloads[i]);
    }
    tables->big_probes = hwstar::workload::UniformKeys(kProbes, kBigBuild, 73);
    tables->small_probes =
        hwstar::workload::UniformKeys(kProbes, kSmallBuild, 74);
    return tables;
  }();
  return *t;
}

void BM_PrefetchProbe(benchmark::State& state, bool big_table) {
  const uint32_t distance = static_cast<uint32_t>(state.range(0));
  const Tables& t = Get();
  const LinearProbeTable& table = big_table ? *t.big : *t.small;
  const auto& probes = big_table ? t.big_probes : t.small_probes;
  for (auto _ : state) {
    uint64_t matches =
        table.CountMatchesBatch(probes.data(), probes.size(), distance);
    benchmark::DoNotOptimize(matches);
  }
  state.counters["distance"] = distance;
  state.counters["table_mb"] =
      static_cast<double>(table.MemoryBytes()) / (1 << 20);
  state.counters["Mprobes_per_s"] = benchmark::Counter(
      static_cast<double>(kProbes) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Build(benchmark::State& state, bool parallel) {
  auto rel = hwstar::workload::MakeBuildRelation(kBigBuild, 75);
  hwstar::exec::Executor pool(2);
  for (auto _ : state) {
    if (parallel) {
      LinearProbeTable table(kBigBuild);
      const uint64_t half = kBigBuild / 2;
      pool.Submit([&](uint32_t) {
        table.InsertShared(rel.keys.data(), rel.payloads.data(), half);
      });
      pool.Submit([&](uint32_t) {
        table.InsertShared(rel.keys.data() + half, rel.payloads.data() + half,
                           kBigBuild - half);
      });
      pool.WaitIdle();
      benchmark::DoNotOptimize(table.size());
    } else {
      LinearProbeTable table(kBigBuild);
      for (uint64_t i = 0; i < kBigBuild; ++i) {
        table.Insert(rel.keys[i], rel.payloads[i]);
      }
      benchmark::DoNotOptimize(table.size());
    }
  }
  state.counters["Mbuilds_per_s"] = benchmark::Counter(
      static_cast<double>(kBigBuild) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

int main(int argc, char** argv) {
  Get();
  for (int64_t d : {0, 1, 2, 4, 8, 16, 32, 64}) {
    benchmark::RegisterBenchmark(
        "probe/dram", [](benchmark::State& s) { BM_PrefetchProbe(s, true); })
        ->Arg(d)
        ->Iterations(3);
    benchmark::RegisterBenchmark(
        "probe/cached", [](benchmark::State& s) { BM_PrefetchProbe(s, false); })
        ->Arg(d)
        ->Iterations(3);
  }
  benchmark::RegisterBenchmark(
      "build/serial", [](benchmark::State& s) { BM_Build(s, false); })
      ->Iterations(3)
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      "build/cas2t", [](benchmark::State& s) { BM_Build(s, true); })
      ->Iterations(3)
      ->UseRealTime();
  return hwstar::bench::RunBenchMain(
      argc, argv,
      "A6: software prefetch distance in hash probes; CAS-parallel build",
      {"distance", "table_mb", "Mprobes_per_s", "Mbuilds_per_s"});
}
