#include "hwstar/tune/tunable.h"

#include <array>
#include <sstream>

#include "hwstar/common/bits.h"
#include "hwstar/common/macros.h"
#include "hwstar/hw/machine_model.h"

namespace hwstar::tune {

Tunable::Tunable(TunableSpec spec) : spec_(std::move(spec)), value_(0) {
  HWSTAR_CHECK(spec_.min <= spec_.max);
  HWSTAR_CHECK(!spec_.power_of_two ||
               (bits::NextPowerOfTwo(spec_.min) == spec_.min &&
                bits::NextPowerOfTwo(spec_.max) == spec_.max));
  // The default must be representable under the spec's own constraints.
  HWSTAR_CHECK(Clamp(spec_.default_value) == spec_.default_value);
  value_.store(spec_.default_value, std::memory_order_relaxed);
}

uint64_t Tunable::Clamp(uint64_t v) const {
  if (spec_.power_of_two) v = bits::NextPowerOfTwo(v);
  if (v < spec_.min) v = spec_.min;
  if (v > spec_.max) v = spec_.max;
  return v;
}

uint64_t Tunable::Set(uint64_t v) {
  v = Clamp(v);
  value_.store(v, std::memory_order_relaxed);
  return v;
}

Registry& Registry::Global() {
  // Leaked intentionally (see header): worker threads read knobs during
  // static destruction.
  static Registry* g = new Registry();
  return *g;
}

Tunable* Registry::Register(TunableSpec spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(spec.name);
  if (it != entries_.end()) {
    const TunableSpec& have = it->second->spec();
    HWSTAR_CHECK(have.default_value == spec.default_value &&
                 have.min == spec.min && have.max == spec.max &&
                 have.power_of_two == spec.power_of_two);
    return it->second.get();
  }
  const std::string name = spec.name;
  auto inserted =
      entries_.emplace(name, std::make_unique<Tunable>(std::move(spec)));
  return inserted.first->second.get();
}

Tunable* Registry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

bool Registry::Set(const std::string& name, uint64_t value) {
  Tunable* t = Find(name);
  if (t == nullptr) return false;
  t->Set(value);
  return true;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, t] : entries_) t->Reset();
}

std::string Registry::DumpText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, t] : entries_) {
    const TunableSpec& s = t->spec();
    os << "tunable " << name << " " << t->Get() << " default="
       << s.default_value << " min=" << s.min << " max=" << s.max << "\n";
  }
  return os.str();
}

std::vector<std::pair<std::string, uint64_t>> Registry::Values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(entries_.size());
  for (const auto& [name, t] : entries_) out.emplace_back(name, t->Get());
  return out;
}

size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

// ---------------------------------------------------------------------------
// Core knobs. Each accessor registers on first use and caches the pointer;
// after that a call is a guard-variable check plus the relaxed load.

Tunable& ProbeGroupSize() {
  static Tunable* t = Registry::Global().Register(
      {"probe.group_size", 16, 4, 32, /*power_of_two=*/true,
       "GP group width for batched probe kernels (compiled widths 4..32)"});
  return *t;
}

Tunable& AmacRingWidth() {
  static Tunable* t = Registry::Global().Register(
      {"probe.amac_ring", 16, 4, 32, /*power_of_two=*/true,
       "AMAC in-flight probe state machines for chained-bucket walks"});
  return *t;
}

Tunable& AmacMinTableBytes() {
  static Tunable* t = Registry::Global().Register(
      {"probe.amac_min_table_bytes", 2u << 20, 64u << 10, 1u << 30,
       /*power_of_two=*/false,
       "table footprint below which AMAC degrades to the scalar walk"});
  return *t;
}

Tunable& StreamBatchRows() {
  static Tunable* t = Registry::Global().Register(
      {"stream.batch_rows", 4096, 64, 1u << 20, /*power_of_two=*/false,
       "rows per streaming micro-batch"});
  return *t;
}

Tunable& StreamMaxInflight() {
  static Tunable* t = Registry::Global().Register(
      {"stream.max_inflight", 8, 1, 4096, /*power_of_two=*/false,
       "max queued micro-batches per pipeline partition"});
  return *t;
}

Tunable& StreamLatenessBound() {
  static Tunable* t = Registry::Global().Register(
      {"stream.lateness_bound", 1024, 0, ~uint64_t{0},
       /*power_of_two=*/false,
       "watermark lateness bound in event-time units"});
  return *t;
}

Tunable& EpochAdvanceInterval() {
  static Tunable* t = Registry::Global().Register(
      {"epoch.advance_interval", 64, 1, 1u << 20, /*power_of_two=*/false,
       "retires between epoch-advance attempts"});
  return *t;
}

Tunable& EpochRetireBatch() {
  static Tunable* t = Registry::Global().Register(
      {"epoch.retire_batch", 128, 1, 1u << 20, /*power_of_two=*/false,
       "per-thread retire-list length that triggers a sweep"});
  return *t;
}

Tunable& MorselRows() {
  static Tunable* t = Registry::Global().Register(
      {"exec.morsel_rows", uint64_t{1} << 16, uint64_t{1} << 10,
       uint64_t{1} << 24, /*power_of_two=*/false,
       "rows per morsel for morsel-driven parallel loops"});
  return *t;
}

Tunable& SimdBackend() {
  static Tunable* t = Registry::Global().Register(
      {"simd.backend", 2, 0, 2, /*power_of_two=*/false,
       "data-parallel kernel backend: 0=scalar 1=sse4.2 2=avx2 "
       "(capped at host support when read)"});
  return *t;
}

namespace {

std::array<Tunable*, 10> CoreKnobs() {
  return {&ProbeGroupSize(),       &AmacRingWidth(),
          &AmacMinTableBytes(),    &StreamBatchRows(),
          &StreamMaxInflight(),    &StreamLatenessBound(),
          &EpochAdvanceInterval(), &EpochRetireBatch(),
          &MorselRows(),           &SimdBackend()};
}

// Eagerly touch every core accessor at static-init time, so by-name
// lookups (Registry::Set from config or ops tooling, dumps) see the full
// set in any process that links the registry — not just processes that
// happened to run a kernel first. The accessors' magic statics make this
// safe to race with early first-use from other initializers.
const bool g_core_knobs_registered = (CoreKnobs(), true);

}  // namespace

void ApplyMachine(const hw::MachineModel& m) {
  for (Tunable* t : CoreKnobs()) t->Reset();
  // The AMAC gate is where chain steps start missing whatever cache the
  // table can actually occupy. With a shared last-level cache every core
  // competes for it, so the per-core share is the knee; without one the
  // last private level is. The knob's bounds keep degenerate hierarchies
  // (tiny embedded caches, enormous LLCs) inside the measured-sane range.
  if (!m.caches.empty()) {
    const hw::CacheLevelSpec& last = m.caches.back();
    AmacMinTableBytes().Set(last.shared && m.cores > 0
                                ? last.size_bytes / m.cores
                                : last.size_bytes);
  }
  SimdBackend().Set(m.isa.avx2 ? 2 : m.isa.sse42 ? 1 : 0);
}

}  // namespace hwstar::tune
