#ifndef HWSTAR_TUNE_CALIBRATOR_H_
#define HWSTAR_TUNE_CALIBRATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hwstar/hw/machine_model.h"

namespace hwstar::tune {

/// Options for one calibration pass. The defaults finish in well under a
/// second on a laptop core and are safe on a 1-CPU CI runner; benches that
/// want tighter confidence raise keys/repetitions.
struct CalibratorOptions {
  /// Machine whose cache hierarchy chooses the trial footprints; only
  /// `model.caches` is read. Default: the discovered host.
  hw::MachineModel model;
  /// Explicit trial footprints in bytes (table MemoryBytes targets).
  /// Empty = derive from model.caches: half of each level (resident
  /// there) plus 4x the last level (DRAM-resident).
  std::vector<uint64_t> footprints;
  /// Largest table the calibrator may allocate. Footprints above this are
  /// dropped (keeps CI and small hosts out of swap).
  uint64_t max_table_bytes = uint64_t{1} << 26;  // 64MB
  /// Floor on probe keys per timed trial. The effective count is raised
  /// to cover the trial table's build set (capped at 1M keys) so big-
  /// footprint trials don't measure a cache-warm sample of the table.
  uint32_t keys_per_trial = 1u << 14;
  /// Zipf skew of the trial probe stream over the build keys (0 =
  /// uniform, in [0, 1)). Calibration is workload-conditioning, not just
  /// machine-conditioning: under heavy skew the hot chains sit in cache
  /// whatever the table's footprint, which moves the scalar<->AMAC
  /// crossover — a caller that knows its skew should calibrate with it.
  double probe_theta = 0.0;
  /// Timed repetitions per configuration; the minimum is kept (standard
  /// microbenchmark practice: the min is the least-perturbed run).
  uint32_t repetitions = 3;
  /// Install the winners into the tune registry when done. Off = measure
  /// only (the dry-run/reporting mode).
  bool install = true;

  CalibratorOptions();
};

/// One (footprint, structure-class) measurement.
struct CalibrationTrial {
  uint64_t footprint_bytes = 0;
  /// GP class (LinearProbeTable): ns/key for the scalar loop and for each
  /// swept group width, parallel to `group_widths`.
  double gp_scalar_ns = 0.0;
  std::vector<uint32_t> group_widths;
  std::vector<double> gp_ns;
  uint32_t gp_winner = 0;  ///< 0 = scalar won
  /// AMAC class (ChainedTable): ns/key scalar vs. the best ring width.
  double amac_scalar_ns = 0.0;
  std::vector<double> amac_ns;  ///< parallel to group_widths
  uint32_t amac_winner = 0;     ///< 0 = scalar won
};

/// What a pass measured and (optionally) installed.
struct CalibrationResult {
  /// Winners. group width / ring width are the widths that won at the
  /// largest (memory-resident) footprint — the regime where miss overlap
  /// is the whole game; amac_min_table_bytes is the smallest trial
  /// footprint where the AMAC ring beat the scalar walk by the hysteresis
  /// margin (tables below it keep the scalar walk).
  uint32_t probe_group_size = 0;
  uint32_t amac_ring_width = 0;
  uint64_t amac_min_table_bytes = 0;
  /// SIMD class: the backend (0 = scalar, 1 = SSE4.2, 2 = AVX2) that won
  /// the cache-resident trials, measured per structure class --
  /// `simd_scan_ns` is ns/value for the selection-scan kernel and
  /// `simd_probe_ns` ns/key for the linear-probe FindBatch, both parallel
  /// to `simd_backends` (scalar first, up to simd::BestSupported()). A
  /// vector backend must beat scalar by the hysteresis margin on the
  /// combined time to win; the winner installs into tune::SimdBackend
  /// through its clamp.
  std::vector<uint32_t> simd_backends;
  std::vector<double> simd_scan_ns;
  std::vector<double> simd_probe_ns;
  uint32_t simd_backend = 0;
  bool installed = false;
  std::vector<CalibrationTrial> trials;
  /// Multi-line human-readable table of the trials + winners.
  std::string ToString() const;
};

/// Micro-benchmarks the batched probe kernels on *this* machine and
/// installs the winners into the tune registry. The paper's argument is
/// that hand-tuned constants die with the hardware generation
/// they were tuned on; the Calibrator re-derives them at deployment time
/// by measuring, per structure class:
///
///  - GP group width (tune::ProbeGroupSize): LinearProbeTable::FindBatch
///    swept over the compiled widths {4, 8, 16, 32} across table
///    footprints sitting in L1, L2, LLC and DRAM.
///  - AMAC ring width (tune::AmacRingWidth): ChainedTable::FindBatch,
///    same sweep.
///  - The scalar<->AMAC crossover (tune::AmacMinTableBytes): the smallest
///    footprint where the ring beats the scalar walk by >= 5% — below it
///    chains hit in cache and the ring's state shuffle is pure overhead.
///  - The SIMD backend (tune::SimdBackend): scalar vs every vector
///    backend the host cpuid reports, on cache-resident selection-scan
///    and linear-probe trials (the regime where the ISA, not DRAM, is
///    the limiter); a vector backend must beat scalar by the same margin.
///
/// RunOnce() is synchronous, allocation-heavy but bounded
/// (max_table_bytes), and terminates unconditionally: every sweep is over
/// fixed finite sets. Installs go through each tunable's central clamp, so
/// a calibration can never publish an out-of-bounds value. Thread-safe in
/// the trivial sense (no shared mutable state beyond the registry's
/// relaxed stores), though running two calibrators concurrently just
/// wastes cycles.
class Calibrator {
 public:
  explicit Calibrator(CalibratorOptions options = CalibratorOptions());

  /// One full measure-and-install pass; returns what it found.
  CalibrationResult RunOnce();

  const CalibratorOptions& options() const { return options_; }

 private:
  CalibratorOptions options_;
};

}  // namespace hwstar::tune

#endif  // HWSTAR_TUNE_CALIBRATOR_H_
