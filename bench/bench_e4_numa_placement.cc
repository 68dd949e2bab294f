// E4 -- NUMA: ignoring placement costs real performance. A parallel scan
// over a large region is simulated on 2/4/8-node machines under three
// placement policies. Every core streams its share of the data; each cache
// line's DRAM latency depends on whether its home node matches the core's.
// Expected shape: naive bind-to-node-0 degrades with node count (all but
// one node's cores pay the remote multiplier and the makespan follows the
// slowest core); interleaving pays a constant (N-1)/N remote fraction;
// partitioned-local (first-touch by the scanning core) stays at 1.0x.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hwstar/hw/machine_model.h"
#include "hwstar/sim/numa_model.h"

namespace {

using hwstar::hw::MachineModel;
using hwstar::sim::NumaModel;

constexpr uint64_t kBytes = 1ull << 30;  // 1GB logical region
constexpr uint64_t kLine = 64;

enum Policy { kBind0 = 0, kInterleave = 1, kLocalPartition = 2 };

const char* PolicyName(int p) {
  switch (p) {
    case kBind0:
      return "bind0";
    case kInterleave:
      return "interleave";
    default:
      return "local";
  }
}

/// Simulated makespan (cycles) of a parallel streaming scan under the
/// given machine and placement; also returns the remote-access fraction.
double SimulateScan(const MachineModel& machine, int policy,
                    double* remote_fraction) {
  NumaModel numa(machine);
  const uint64_t base = 1ull << 40;  // arbitrary virtual base
  // Register placement.
  switch (policy) {
    case kBind0:
      numa.RegisterRegion(base, kBytes, NumaModel::Policy::kBindNode0);
      break;
    case kInterleave:
      numa.RegisterRegion(base, kBytes, NumaModel::Policy::kInterleave);
      break;
    case kLocalPartition: {
      // Each core's slice is first-touched by that core.
      const uint64_t slice = kBytes / machine.cores;
      for (uint32_t c = 0; c < machine.cores; ++c) {
        numa.RegisterRegion(base + c * slice, slice,
                            NumaModel::Policy::kFirstTouch,
                            numa.NodeOfCore(c));
      }
      break;
    }
  }
  // Each core streams its slice; sample one access per 4KB page per line
  // group to keep the simulation fast while preserving the local/remote
  // ratio exactly (all lines in a page share a home node).
  const uint64_t slice = kBytes / machine.cores;
  const uint64_t kPage = 4096;
  std::vector<double> core_cycles(machine.cores, 0.0);
  for (uint32_t c = 0; c < machine.cores; ++c) {
    const uint64_t begin = base + c * slice;
    for (uint64_t off = 0; off < slice; off += kPage) {
      const uint32_t lat = numa.DramLatency(c, begin + off);
      core_cycles[c] += static_cast<double>(lat) * (kPage / kLine);
    }
  }
  *remote_fraction = numa.stats().remote_fraction();
  return *std::max_element(core_cycles.begin(), core_cycles.end());
}

void BM_NumaScan(benchmark::State& state, uint32_t nodes, int policy,
                 double remote_multiplier) {
  MachineModel machine = MachineModel::Server2013();
  machine.numa_nodes = nodes;
  machine.cores = 4 * nodes;
  machine.numa_remote_multiplier = remote_multiplier;

  double remote_fraction = 0;
  double makespan = 0;
  for (auto _ : state) {
    makespan = SimulateScan(machine, policy, &remote_fraction);
    benchmark::DoNotOptimize(makespan);
  }
  double local_ref = 0, rf = 0;
  local_ref = SimulateScan(machine, kLocalPartition, &rf);
  state.counters["nodes"] = nodes;
  state.counters["remote_mult"] = remote_multiplier;
  state.counters["remote_frac"] = remote_fraction;
  state.counters["slowdown_vs_local"] = makespan / local_ref;
}

}  // namespace

int main(int argc, char** argv) {
  for (uint32_t nodes : {2u, 4u, 8u}) {
    for (int policy : {kBind0, kInterleave, kLocalPartition}) {
      std::string name =
          std::string(PolicyName(policy)) + "/n" + std::to_string(nodes);
      benchmark::RegisterBenchmark(name.c_str(), BM_NumaScan, nodes, policy,
                                   1.6)
          ->Iterations(1);
    }
  }
  // Remote-multiplier sensitivity at 2 nodes, bind0.
  for (double mult : {1.0, 1.3, 1.6, 2.0, 3.0}) {
    std::string name = "bind0/mult" + std::to_string(mult).substr(0, 3);
    benchmark::RegisterBenchmark(name.c_str(), BM_NumaScan, 2u, kBind0, mult)
        ->Iterations(1);
  }
  return hwstar::bench::RunBenchMain(
      argc, argv,
      "E4: simulated NUMA placement for a parallel scan (1GB, 4 cores/node)",
      {"nodes", "remote_mult", "remote_frac", "slowdown_vs_local"});
}
