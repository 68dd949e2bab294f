#ifndef HWSTAR_HW_TOPOLOGY_H_
#define HWSTAR_HW_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hwstar::hw {

/// One level of the host cache hierarchy as discovered from the OS.
struct CacheLevelInfo {
  int level = 0;               ///< 1, 2, 3, ...
  std::string type;            ///< "Data", "Instruction", "Unified"
  uint64_t size_bytes = 0;     ///< total capacity
  uint32_t line_bytes = 64;    ///< cache-line size
  uint32_t associativity = 8;  ///< ways
  bool shared = false;         ///< shared across cores (heuristic: level >= 3)
};

/// SIMD instruction-set extensions of the host CPU, as reported by cpuid.
/// These pick the hwstar::simd kernel backend (and, through
/// MachineModel::isa, tune::ApplyMachine's simd.backend value); every bench
/// and calibration log records them so a number is never quoted without
/// the ISA that produced it.
struct CpuIsaFeatures {
  bool sse42 = false;    ///< SSE4.2 (pcmpgtq, the 2-lane backend floor)
  bool avx2 = false;     ///< AVX2 (the 4-lane backend)
  bool avx512f = false;  ///< AVX-512 Foundation (detected + reported only;
                         ///< no compiled backend yet)

  /// Space-separated flag list, "none" when nothing is supported.
  std::string ToString() const;
};

/// Queries cpuid for the flags above. Always reports the hardware truth —
/// HWSTAR_DISABLE_SIMD gates which kernels are *compiled*, not what the
/// host *has* (simd::BestSupported applies that cap). Non-x86 builds
/// report all-false.
CpuIsaFeatures DetectIsaFeatures();

/// Host CPU topology: logical core count, ISA features, and the
/// data/unified cache levels of core 0. All fields have safe fallbacks so
/// the struct is usable on hosts without sysfs (the values then describe a
/// generic 2013-era server, matching the paper's hardware generation).
struct CpuTopology {
  uint32_t logical_cores = 1;
  CpuIsaFeatures isa;
  std::vector<CacheLevelInfo> caches;

  /// Returns the capacity of the given data/unified cache level, or 0 when
  /// that level is absent.
  uint64_t CacheSizeBytes(int level) const;

  /// Human-readable one-line-per-level summary.
  std::string ToString() const;
};

/// Discovers the host topology. Reads
/// /sys/devices/system/cpu/cpu0/cache/index*/ when available; otherwise
/// returns the generic fallback (32KB L1d / 256KB L2 / 8MB L3, 64B lines).
CpuTopology DiscoverTopology();

}  // namespace hwstar::hw

#endif  // HWSTAR_HW_TOPOLOGY_H_
