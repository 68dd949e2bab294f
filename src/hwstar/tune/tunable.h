#ifndef HWSTAR_TUNE_TUNABLE_H_
#define HWSTAR_TUNE_TUNABLE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hwstar::hw {
struct MachineModel;
}  // namespace hwstar::hw

namespace hwstar::tune {

/// The self-tuning substrate's unit of configuration: one named, typed,
/// bounded hardware knob. The paper's thesis is that software must keep
/// tracking hardware it was never tuned for; a Tunable is the mechanism —
/// every knob that encodes a hardware assumption (probe group width, the
/// AMAC footprint gate, micro-batch rows, reclamation cadence, morsel
/// size) lives behind one of these instead of a one-off global, so it can
/// be derived from a MachineModel (ApplyMachine), re-measured by the
/// Calibrator, set by a deployment config, and dumped next to metrics —
/// all through one surface.
///
/// Contract: values are *performance hints, never correctness inputs*.
/// Get() is a single relaxed atomic load (hot paths read knobs every
/// batch; the read must cost what the old raw global cost). Set() clamps
/// into [min, max] — and rounds up to a power of two when the spec
/// demands it — before a relaxed store, so no caller can publish an
/// out-of-range or structurally invalid value no matter how it reaches
/// the setter. Readers that race a Set see either the old or the new
/// value, both of which are in bounds; kernels stay bit-identical across
/// a flip because group width only changes miss overlap, not results.
struct TunableSpec {
  std::string name;           ///< dotted path, e.g. "probe.group_size"
  uint64_t default_value = 0;
  uint64_t min = 0;
  uint64_t max = ~uint64_t{0};
  /// Require a power of two (values round *up* to the next one, then
  /// clamp). For knobs that index compiled kernel widths or size masks.
  bool power_of_two = false;
  std::string help;           ///< one line for DumpText readers
};

class Tunable {
 public:
  explicit Tunable(TunableSpec spec);

  Tunable(const Tunable&) = delete;
  Tunable& operator=(const Tunable&) = delete;

  /// The current value; a relaxed load, safe and cheap on any hot path.
  uint64_t Get() const { return value_.load(std::memory_order_relaxed); }

  /// Installs Clamp(v) (relaxed store); returns what was installed.
  uint64_t Set(uint64_t v);

  /// What Set(v) would install: power-of-two rounding (up), then bounds.
  uint64_t Clamp(uint64_t v) const;

  /// Restores the spec default; returns it.
  uint64_t Reset() { return Set(spec_.default_value); }

  const TunableSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

 private:
  const TunableSpec spec_;
  std::atomic<uint64_t> value_;
};

/// The process-wide catalogue of tunables. Components register their
/// knobs once (create-or-return by name, spec checked for agreement);
/// the Calibrator, ops snapshots and deployment config all address them
/// by name through here. Registration, lookup-by-name and
/// dumping take a mutex — they are off the hot path; hot paths hold the
/// Tunable* (or use the inline accessors below) and pay only the relaxed
/// load.
class Registry {
 public:
  /// The process-wide registry. Never destroyed, like
  /// sync::EpochManager::Global(): knobs are read from worker threads
  /// that may outlive static destruction order.
  static Registry& Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Create-or-return the tunable named spec.name. Re-registering with a
  /// different default/bounds/constraint is a programmer error (checked).
  /// The pointer stays valid for the registry's lifetime.
  Tunable* Register(TunableSpec spec);

  /// Lookup by name; null when unknown.
  Tunable* Find(const std::string& name) const;

  /// Sets a tunable by name (the config-hook path: deployment config and
  /// ops tooling set knobs here, before the components that read them
  /// start). Returns false when no such tunable exists; the value is
  /// clamped by the tunable's own spec as usual.
  bool Set(const std::string& name, uint64_t value);

  /// Restores every registered tunable to its spec default.
  void ResetAll();

  /// One line per tunable, sorted by name:
  ///   tunable <name> <value> default=<d> min=<m> max=<M>
  /// The format is deliberately scrape-shaped so it can ride along with
  /// obs::Registry::DumpText in ops snapshots and bench logs.
  std::string DumpText() const;

  /// (name, current value) for every registered tunable, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> Values() const;

  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Tunable>> entries_;
};

/// Core knobs, registered in Registry::Global() on first use. These are
/// the hardware-consciousness surface and the only spelling of each knob:
/// hot paths read `X().Get()`; the Calibrator, config hooks and tests
/// write `X().Set()`. Each accessor returns the same
/// Tunable for the life of the process.
///
/// GP group width for the batched probe kernels (linear-probe hash
/// table, ART, B+-tree, Bloom filters): the number of
/// independent cache misses kept in flight. Power of two in [4, 32] —
/// the widths the kernels are compiled for.
Tunable& ProbeGroupSize();

/// AMAC ring width for chained-bucket walks (the variable-length-chain
/// discipline). Calibrated separately from the GP width because the ring
/// keeps state live across stages and saturates differently.
Tunable& AmacRingWidth();

/// Footprint (bytes) below which AMAC degrades to the scalar walk: a
/// cache-resident table's chain steps hit, and the ring's state shuffle
/// is pure overhead. Derived from the machine's cache specs by
/// ApplyMachine and re-measured by the Calibrator.
Tunable& AmacMinTableBytes();

/// Rows per streaming micro-batch (dispatch amortization vs. emission
/// latency and cache footprint).
Tunable& StreamBatchRows();

/// Max queued micro-batches per pipeline partition (the backpressure
/// budget).
Tunable& StreamMaxInflight();

/// Watermark lateness bound in event-time units (0 = nothing may be
/// late).
Tunable& StreamLatenessBound();

/// Retires between epoch-advance attempts (sync::EpochManager cadence).
Tunable& EpochAdvanceInterval();

/// Per-thread retire-list length that triggers a sweep (bounds deferred
/// reclamation footprint).
Tunable& EpochRetireBatch();

/// Rows per morsel for morsel-driven parallel loops (exec::MorselDispenser
/// and every entry point that passes morsel_size 0). The default, 2^16, is
/// the largest power of two under the ~100K tuples Leis et al. recommend:
/// a morsel of 8-byte values is 512 KiB, so the dispenser's shared
/// fetch_add amortizes to well under 0.1% of the morsel's work, while a
/// 16M-row input still splits into 256 morsels for rebalancing.
Tunable& MorselRows();

/// Requested simd::Backend for the data-parallel kernels (0 = scalar,
/// 1 = SSE4.2, 2 = AVX2). The default (2) means "the best the host has":
/// simd::ActiveBackend() takes the min of this knob and the cpuid-capped
/// simd::BestSupported(), so forcing a backend the host lacks degrades
/// gracefully instead of faulting. The Calibrator measures scalar-vs-SIMD
/// per structure class and installs the winner here, exactly like the
/// GP/AMAC width knobs.
Tunable& SimdBackend();

/// Derives the core knobs from a machine description: every core knob
/// goes back to its spec default, then the two that depend on the
/// hardware are set from it.
///  - probe.amac_min_table_bytes: the footprint where chain steps start
///    missing the cache a table can occupy — the per-core share of a
///    shared last-level cache, else the last private level (spec default
///    when the model lists no caches).
///  - simd.backend: the best backend `m.isa` supports.
/// Values pass through each knob's clamp as usual.
void ApplyMachine(const hw::MachineModel& m);

}  // namespace hwstar::tune

#endif  // HWSTAR_TUNE_TUNABLE_H_
