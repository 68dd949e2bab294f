#ifndef HWSTAR_HW_MACHINE_MODEL_H_
#define HWSTAR_HW_MACHINE_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hwstar/hw/topology.h"

namespace hwstar::hw {

/// Parameters of one modeled cache level. Latencies are in (reference)
/// cycles and follow published numbers for 2013-era Intel server parts,
/// which is the hardware generation the paper discusses.
struct CacheLevelSpec {
  uint64_t size_bytes = 0;
  uint32_t line_bytes = 64;
  uint32_t associativity = 8;
  uint32_t hit_latency_cycles = 4;
  bool shared = false;
};

/// Parameters of the modeled TLB.
struct TlbSpec {
  uint32_t entries = 64;
  uint32_t page_bytes = 4096;
  uint32_t miss_penalty_cycles = 30;
};

/// Full description of a (real or hypothetical) machine. This is the single
/// configuration object consumed by the hwstar::sim hierarchy model, the
/// NUMA model and the energy model, so every experiment states its machine
/// explicitly.
///
/// It describes hardware only. The runtime's knobs live in the
/// hwstar::tune registry; tune::ApplyMachine derives the hardware-dependent
/// ones (the AMAC footprint gate, the SIMD backend) from a model.
struct MachineModel {
  std::string name;
  uint32_t cores = 8;
  std::vector<CacheLevelSpec> caches;
  TlbSpec tlb;
  uint32_t dram_latency_cycles = 200;
  /// NUMA: number of nodes and the multiplier applied to DRAM latency for
  /// remote-node accesses.
  uint32_t numa_nodes = 1;
  double numa_remote_multiplier = 1.0;
  /// Energy proxy, in picojoules per event (values follow the
  /// "energy-per-operation" literature: a DRAM access costs ~2 orders of
  /// magnitude more than a cache hit).
  double energy_pj_l1_hit = 10.0;
  double energy_pj_l2_hit = 30.0;
  double energy_pj_l3_hit = 100.0;
  double energy_pj_dram = 2000.0;
  double energy_pj_instruction = 1.0;
  /// SIMD extensions. The hand-built models claim SSE4.2 and AVX2;
  /// FromHost() copies the cpuid answer.
  CpuIsaFeatures isa{.sse42 = true, .avx2 = true};

  /// A 2013-era two-socket server: 8 cores, 32KB/256KB/20MB caches, 2 NUMA
  /// nodes with 1.6x remote latency.
  static MachineModel Server2013();

  /// A single-socket desktop: 4 cores, 32KB/256KB/8MB, uniform memory.
  static MachineModel Desktop();

  /// A many-core part: 32 small cores, 32KB/512KB, no L3, higher DRAM
  /// latency -- the "sea of simple cores" direction the paper discusses.
  static MachineModel ManyCore();

  /// Builds a model from the discovered host topology (cores, caches,
  /// ISA), filling latencies with the Server2013 defaults.
  static MachineModel FromHost(const CpuTopology& topo);

  /// One-line summary for reports.
  std::string ToString() const;
};

}  // namespace hwstar::hw

#endif  // HWSTAR_HW_MACHINE_MODEL_H_
