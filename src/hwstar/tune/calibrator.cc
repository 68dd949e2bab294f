#include "hwstar/tune/calibrator.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "hwstar/common/timer.h"
#include "hwstar/hw/topology.h"
#include "hwstar/ops/hash_table.h"
#include "hwstar/simd/backend.h"
#include "hwstar/simd/kernels.h"
#include "hwstar/tune/tunable.h"
#include "hwstar/workload/distributions.h"

namespace hwstar::tune {

namespace {

/// The compiled kernel widths (what WithProbeGroup can dispatch to).
constexpr uint32_t kWidths[] = {4, 8, 16, 32};

/// Hysteresis: the ring must beat the scalar walk by this factor at a
/// footprint before the crossover moves below it. Guards against noise
/// flapping the gate around break-even.
constexpr double kCrossoverMargin = 1.05;

/// Deterministic 64-bit LCG (Knuth MMIX constants) for key shuffling.
/// The calibrator must be reproducible run to run on the same machine.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_;
  }

 private:
  uint64_t state_;
};

/// Distinct, well-spread keys (never LinearProbeTable::kEmpty).
uint64_t TrialKey(uint64_t i) { return i * 0x9E3779B97F4A7C15ULL + 1; }

/// Probe keys: hits drawn from the build set in shuffled order (so the
/// probe stream has no spatial correlation with insertion order), Zipf-
/// skewed over build ranks when theta > 0.
std::vector<uint64_t> MakeProbeKeys(uint64_t build_n, uint32_t count,
                                    double theta, uint64_t seed) {
  std::vector<uint64_t> keys(count);
  if (theta > 0.0) {
    workload::ZipfGenerator zipf(build_n, theta, seed);
    for (uint32_t i = 0; i < count; ++i) keys[i] = TrialKey(zipf.Next());
    return keys;
  }
  Lcg rng(seed);
  for (uint32_t i = 0; i < count; ++i) {
    keys[i] = TrialKey(rng.Next() % build_n);
  }
  return keys;
}

/// Best-of-repetitions ns/key for one probe configuration. The checksum
/// accumulation keeps the optimizer from deleting the work.
template <typename Fn>
double TimeNsPerKey(uint32_t repetitions, uint32_t keys, Fn&& run) {
  uint64_t best = ~uint64_t{0};
  for (uint32_t r = 0; r < repetitions; ++r) {
    WallTimer timer;
    run();
    best = std::min(best, timer.ElapsedNanos());
  }
  return static_cast<double>(best) / static_cast<double>(keys);
}

}  // namespace

CalibratorOptions::CalibratorOptions()
    : model(hw::MachineModel::FromHost(hw::DiscoverTopology())) {}

std::string CalibrationResult::ToString() const {
  std::string out;
  char line[256];
  for (const CalibrationTrial& t : trials) {
    std::snprintf(line, sizeof(line), "calib footprint=%lluB gp[scalar=%.1f",
                  static_cast<unsigned long long>(t.footprint_bytes),
                  t.gp_scalar_ns);
    out += line;
    for (size_t i = 0; i < t.group_widths.size(); ++i) {
      std::snprintf(line, sizeof(line), " G%u=%.1f", t.group_widths[i],
                    t.gp_ns[i]);
      out += line;
    }
    std::snprintf(line, sizeof(line), " win=%u] amac[scalar=%.1f",
                  t.gp_winner, t.amac_scalar_ns);
    out += line;
    for (size_t i = 0; i < t.group_widths.size(); ++i) {
      std::snprintf(line, sizeof(line), " K%u=%.1f", t.group_widths[i],
                    t.amac_ns[i]);
      out += line;
    }
    std::snprintf(line, sizeof(line), " win=%u] ns/key\n", t.amac_winner);
    out += line;
  }
  if (!simd_backends.empty()) {
    out += "calib simd";
    for (size_t i = 0; i < simd_backends.size(); ++i) {
      std::snprintf(
          line, sizeof(line), " %s[scan=%.2f probe=%.1f]",
          simd::BackendName(static_cast<simd::Backend>(simd_backends[i])),
          simd_scan_ns[i], simd_probe_ns[i]);
      out += line;
    }
    std::snprintf(line, sizeof(line), " win=%u ns\n", simd_backend);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "calib winners: probe.group_size=%u probe.amac_ring=%u "
                "probe.amac_min_table_bytes=%llu simd.backend=%u "
                "installed=%d\n",
                probe_group_size, amac_ring_width,
                static_cast<unsigned long long>(amac_min_table_bytes),
                simd_backend, installed ? 1 : 0);
  out += line;
  return out;
}

Calibrator::Calibrator(CalibratorOptions options)
    : options_(std::move(options)) {}

CalibrationResult Calibrator::RunOnce() {
  CalibrationResult result;

  // Trial footprints: half of each modeled cache level (comfortably
  // resident there) plus 4x the last level (decisively out of cache).
  std::vector<uint64_t> footprints = options_.footprints;
  if (footprints.empty()) {
    for (const hw::CacheLevelSpec& level : options_.model.caches) {
      footprints.push_back(level.size_bytes / 2);
    }
    if (!options_.model.caches.empty()) {
      footprints.push_back(options_.model.caches.back().size_bytes * 4);
    }
  }
  if (footprints.empty()) footprints.push_back(uint64_t{1} << 20);
  std::sort(footprints.begin(), footprints.end());
  footprints.erase(std::unique(footprints.begin(), footprints.end()),
                   footprints.end());
  while (!footprints.empty() && footprints.back() > options_.max_table_bytes) {
    footprints.pop_back();
  }
  if (footprints.empty()) footprints.push_back(options_.max_table_bytes);

  const uint32_t reps = std::max(options_.repetitions, 1u);

  for (const uint64_t footprint : footprints) {
    CalibrationTrial trial;
    trial.footprint_bytes = footprint;

    // The probe stream must cover the build set (capped): probing a
    // small fixed sample of a big table leaves the sampled keys
    // cache-resident across repetitions, and the trial measures a warm
    // workload at what is nominally a DRAM footprint.
    const uint64_t trial_build_n = std::max<uint64_t>(footprint / 32, 64);
    const uint32_t probe_count = static_cast<uint32_t>(
        std::max<uint64_t>(std::max(options_.keys_per_trial, 1u),
                           std::min<uint64_t>(trial_build_n, 1u << 20)));

    // --- GP class: LinearProbeTable (flat array, independent misses) ---
    // MemoryBytes = capacity * 16 and capacity = 2 * expected at the 0.5
    // default load factor, so expected = footprint / 32 hits the target.
    {
      const uint64_t build_n = trial_build_n;
      ops::LinearProbeTable table(build_n);
      for (uint64_t i = 0; i < build_n; ++i) {
        table.Insert(TrialKey(i), i);
      }
      const std::vector<uint64_t> probes = MakeProbeKeys(
          build_n, probe_count, options_.probe_theta, /*seed=*/footprint + 1);
      std::vector<uint64_t> values(probe_count);
      volatile uint64_t sink = 0;

      trial.gp_scalar_ns = TimeNsPerKey(reps, probe_count, [&] {
        uint64_t hits = 0, v = 0;
        for (uint32_t i = 0; i < probe_count; ++i) {
          hits += table.Find(probes[i], &v);
        }
        sink = sink + hits;
      });
      double best_ns = trial.gp_scalar_ns;
      trial.gp_winner = 0;
      for (const uint32_t g : kWidths) {
        trial.group_widths.push_back(g);
        const double ns = TimeNsPerKey(reps, probe_count, [&] {
          sink = sink + table.FindBatch(probes.data(), probe_count,
                                        values.data(), nullptr, g);
        });
        trial.gp_ns.push_back(ns);
        if (ns < best_ns) {
          best_ns = ns;
          trial.gp_winner = g;
        }
      }
    }

    // --- AMAC class: ChainedTable (dependent chain misses) -------------
    // MemoryBytes = buckets * 8 + size * 24; with buckets == size that is
    // 32 bytes per key, so build_n = footprint / 32 again.
    {
      const uint64_t build_n = trial_build_n;
      ops::ChainedTable table(build_n);
      for (uint64_t i = 0; i < build_n; ++i) {
        table.Insert(TrialKey(i), i);
      }
      const std::vector<uint64_t> probes = MakeProbeKeys(
          build_n, probe_count, options_.probe_theta, /*seed=*/footprint + 2);
      std::vector<uint64_t> values(probe_count);
      volatile uint64_t sink = 0;

      trial.amac_scalar_ns = TimeNsPerKey(reps, probe_count, [&] {
        uint64_t hits = 0, v = 0;
        for (uint32_t i = 0; i < probe_count; ++i) {
          hits += table.Find(probes[i], &v);
        }
        sink = sink + hits;
      });
      double best_ns = trial.amac_scalar_ns;
      trial.amac_winner = 0;
      for (const uint32_t k : kWidths) {
        // Explicit nonzero width forces the ring past the footprint
        // gate: the trial measures the ring itself, the gate is what the
        // trial is *deriving*.
        const double ns = TimeNsPerKey(reps, probe_count, [&] {
          sink = sink + table.FindBatch(probes.data(), probe_count,
                                        values.data(), nullptr, k);
        });
        trial.amac_ns.push_back(ns);
        if (ns < best_ns) {
          best_ns = ns;
          trial.amac_winner = k;
        }
      }
    }

    result.trials.push_back(std::move(trial));
  }

  // --- SIMD class: scalar vs each vector backend the host supports ----
  // Cache-resident trials on purpose: out of cache every backend waits on
  // DRAM equally, so the scalar<->vector crossover only shows where the
  // data is close. Two structure classes -- the selection scan (pure
  // data-parallel compare) and the linear-probe FindBatch (batched
  // hashing). The knob is forced around each timed
  // region; the winner installs through the tunable's clamp below, so a
  // measurement artifact can never publish an unsupported backend.
  {
    const uint32_t best_backend =
        static_cast<uint32_t>(simd::BestSupported());
    const uint64_t saved_backend = SimdBackend().Get();

    const uint32_t scan_n = 1u << 15;  // 256KB of int64: L2-resident
    std::vector<int64_t> scan_values(scan_n);
    Lcg scan_rng(0x51D);
    for (uint32_t i = 0; i < scan_n; ++i) {
      scan_values[i] = static_cast<int64_t>(scan_rng.Next() >> 1);
    }
    const int64_t scan_hi =
        std::numeric_limits<int64_t>::max() / 2;  // ~50% selectivity

    const uint64_t probe_build_n = uint64_t{1} << 13;  // 256KB table
    ops::LinearProbeTable probe_table(probe_build_n);
    for (uint64_t i = 0; i < probe_build_n; ++i) {
      probe_table.Insert(TrialKey(i), i);
    }
    const uint32_t simd_probe_count = std::max(options_.keys_per_trial, 1u);
    const std::vector<uint64_t> probes = MakeProbeKeys(
        probe_build_n, simd_probe_count, options_.probe_theta, /*seed=*/3);
    std::vector<uint64_t> values(simd_probe_count);
    volatile uint64_t sink = 0;

    double scalar_total = 0.0;
    double best_total = 0.0;
    for (uint32_t b = 0; b <= best_backend; ++b) {
      SimdBackend().Set(b);
      const double scan_ns = TimeNsPerKey(reps, scan_n, [&] {
        sink = sink + simd::CountInRange(simd::ActiveBackend(),
                                         scan_values.data(), scan_n, 0,
                                         scan_hi);
      });
      const double probe_ns = TimeNsPerKey(reps, simd_probe_count, [&] {
        sink = sink + probe_table.FindBatch(probes.data(), simd_probe_count,
                                            values.data(), nullptr);
      });
      result.simd_backends.push_back(b);
      result.simd_scan_ns.push_back(scan_ns);
      result.simd_probe_ns.push_back(probe_ns);
      const double total = scan_ns + probe_ns;
      if (b == 0) {
        scalar_total = total;
        best_total = total;
        result.simd_backend = 0;
      } else if (total * kCrossoverMargin <= scalar_total &&
                 total < best_total) {
        // A vector backend must beat scalar by the hysteresis margin on
        // the combined time; among those that do, fastest wins.
        best_total = total;
        result.simd_backend = b;
      }
    }
    SimdBackend().Set(saved_backend);
  }

  // Winners. Widths: whatever won the largest (most memory-resident)
  // footprint — miss overlap is the regime the knob exists for; a scalar
  // win there (possible on tiny max_table_bytes configs) keeps the
  // current knob value.
  const CalibrationTrial& deepest = result.trials.back();
  result.probe_group_size =
      deepest.gp_winner != 0
          ? deepest.gp_winner
          : static_cast<uint32_t>(ProbeGroupSize().Get());
  {
    uint32_t best_ring = deepest.amac_winner;
    if (best_ring == 0) {
      // Scalar won even out of cache: keep the ring knob as-is, the gate
      // below will park the crossover above every measured footprint.
      best_ring = static_cast<uint32_t>(AmacRingWidth().Get());
    }
    result.amac_ring_width = best_ring;
  }

  // Crossover: smallest footprint where the best ring beats the scalar
  // walk by the margin; every footprint below it keeps the scalar walk.
  // No such footprint = gate above the largest trial (clamped by spec).
  uint64_t crossover = deepest.footprint_bytes * 2;
  for (auto it = result.trials.rbegin(); it != result.trials.rend(); ++it) {
    const double best_amac =
        *std::min_element(it->amac_ns.begin(), it->amac_ns.end());
    if (best_amac * kCrossoverMargin <= it->amac_scalar_ns) {
      crossover = it->footprint_bytes;
    } else {
      break;  // first footprint (descending) where the ring stops paying
    }
  }
  result.amac_min_table_bytes = AmacMinTableBytes().Clamp(crossover);

  if (options_.install) {
    ProbeGroupSize().Set(result.probe_group_size);
    AmacRingWidth().Set(result.amac_ring_width);
    AmacMinTableBytes().Set(result.amac_min_table_bytes);
    SimdBackend().Set(result.simd_backend);
    result.installed = true;
    // Report the values as installed (post-clamp), not as measured.
    result.probe_group_size =
        static_cast<uint32_t>(ProbeGroupSize().Get());
    result.amac_ring_width = static_cast<uint32_t>(AmacRingWidth().Get());
    result.amac_min_table_bytes = AmacMinTableBytes().Get();
    result.simd_backend = static_cast<uint32_t>(SimdBackend().Get());
  }
  return result;
}

}  // namespace hwstar::tune
