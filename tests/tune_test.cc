// Tests for hwstar::tune: the tunable registry (central clamping, the
// core knobs' specs, ApplyMachine's derivation), the concurrency contract
// (relaxed Set/Get from many threads, knob flips under running kernels
// staying bit-identical), and the Calibrator's terminate-and-install-in-
// bounds guarantee.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hwstar/hw/machine_model.h"
#include "hwstar/hw/topology.h"
#include "hwstar/kv/kv_store.h"
#include "hwstar/ops/hash_table.h"
#include "hwstar/simd/backend.h"
#include "hwstar/svc/service.h"
#include "hwstar/tune/calibrator.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::tune {
namespace {

bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Every test leaves the process-wide knobs as it found them.
class TuneTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::Global().ResetAll(); }
  void TearDown() override { Registry::Global().ResetAll(); }
};

TEST_F(TuneTest, SetClampsToBounds) {
  Tunable t(TunableSpec{"test.bounded", 100, 10, 1000, false, ""});
  EXPECT_EQ(t.Get(), 100u);
  EXPECT_EQ(t.Set(5), 10u);     // below min
  EXPECT_EQ(t.Set(5000), 1000u);  // above max
  EXPECT_EQ(t.Set(500), 500u);
  EXPECT_EQ(t.Reset(), 100u);
}

TEST_F(TuneTest, SetRoundsUpToPowerOfTwo) {
  Tunable t(TunableSpec{"test.pow2", 16, 4, 64, true, ""});
  EXPECT_EQ(t.Set(5), 8u);   // rounded up
  EXPECT_EQ(t.Set(3), 4u);   // rounded up to 4, at min
  EXPECT_EQ(t.Set(0), 4u);   // 0 clamps to min
  EXPECT_EQ(t.Set(65), 64u);  // rounds to 128, clamps to max
  EXPECT_EQ(t.Set(~uint64_t{0}), 64u);  // saturates at 2^63, clamps to max
  EXPECT_EQ(t.Clamp(33), 64u);
  EXPECT_EQ(t.Get(), 64u);  // Clamp is a pure function; Get unchanged
}

TEST_F(TuneTest, RegistryCreateOrReturn) {
  TunableSpec spec{"test.registry_knob", 7, 1, 100, false, "a test knob"};
  Tunable* a = Registry::Global().Register(spec);
  Tunable* b = Registry::Global().Register(spec);
  EXPECT_EQ(a, b);  // same name -> same tunable
  EXPECT_EQ(Registry::Global().Find("test.registry_knob"), a);
  EXPECT_EQ(Registry::Global().Find("test.no_such"), nullptr);
}

TEST_F(TuneTest, RegistrySetByName) {
  ProbeGroupSize();  // ensure registered
  EXPECT_TRUE(Registry::Global().Set("probe.group_size", 8));
  EXPECT_EQ(ProbeGroupSize().Get(), 8u);
  EXPECT_TRUE(Registry::Global().Set("probe.group_size", 1000));
  EXPECT_EQ(ProbeGroupSize().Get(), 32u);  // clamped by the same spec
  EXPECT_FALSE(Registry::Global().Set("probe.typo", 8));
}

TEST_F(TuneTest, DumpTextListsEveryKnob) {
  // Touch the core accessors so all are registered.
  ProbeGroupSize();
  AmacRingWidth();
  AmacMinTableBytes();
  StreamBatchRows();
  StreamMaxInflight();
  StreamLatenessBound();
  EpochAdvanceInterval();
  EpochRetireBatch();
  MorselRows();
  SimdBackend();
  const std::string dump = Registry::Global().DumpText();
  for (const char* name :
       {"probe.group_size", "probe.amac_ring", "probe.amac_min_table_bytes",
        "stream.batch_rows", "stream.max_inflight", "stream.lateness_bound",
        "epoch.advance_interval", "epoch.retire_batch", "exec.morsel_rows",
        "simd.backend"}) {
    EXPECT_NE(dump.find(std::string("tunable ") + name), std::string::npos)
        << name;
  }
  // Values() agrees with size() and is sorted.
  const auto values = Registry::Global().Values();
  EXPECT_EQ(values.size(), Registry::Global().size());
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_LT(values[i - 1].first, values[i].first);
  }
}

TEST_F(TuneTest, CoreKnobSpecsBoundsAndClamps) {
  struct Row {
    Tunable& knob;
    const char* name;
    uint64_t def, min, max;
    bool pow2;
  };
  const Row rows[] = {
      {ProbeGroupSize(), "probe.group_size", 16, 4, 32, true},
      {AmacRingWidth(), "probe.amac_ring", 16, 4, 32, true},
      {AmacMinTableBytes(), "probe.amac_min_table_bytes", 2u << 20,
       64u << 10, 1u << 30, false},
      {StreamBatchRows(), "stream.batch_rows", 4096, 64, 1u << 20, false},
      {StreamMaxInflight(), "stream.max_inflight", 8, 1, 4096, false},
      {StreamLatenessBound(), "stream.lateness_bound", 1024, 0,
       ~uint64_t{0}, false},
      {EpochAdvanceInterval(), "epoch.advance_interval", 64, 1, 1u << 20,
       false},
      {EpochRetireBatch(), "epoch.retire_batch", 128, 1, 1u << 20, false},
      {MorselRows(), "exec.morsel_rows", 1u << 16, 1u << 10, 1u << 24,
       false},
      {SimdBackend(), "simd.backend", 2, 0, 2, false},
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(r.name);
    const TunableSpec& spec = r.knob.spec();
    EXPECT_EQ(spec.name, r.name);
    EXPECT_EQ(spec.default_value, r.def);
    EXPECT_EQ(spec.min, r.min);
    EXPECT_EQ(spec.max, r.max);
    EXPECT_EQ(spec.power_of_two, r.pow2);
    EXPECT_EQ(Registry::Global().Find(r.name), &r.knob);
    EXPECT_EQ(r.knob.Get(), r.def);
    // Each bound is legal and round-trips; one step past it clamps.
    EXPECT_EQ(r.knob.Set(r.min), r.min);
    EXPECT_EQ(r.knob.Set(0), r.min);
    if (r.min > 0) {
      EXPECT_EQ(r.knob.Set(r.min - 1), r.min);
    }
    EXPECT_EQ(r.knob.Set(r.max), r.max);
    if (r.max < ~uint64_t{0}) {
      EXPECT_EQ(r.knob.Set(r.max + 1), r.max);
    }
    EXPECT_EQ(r.knob.Set(~uint64_t{0}), r.max);
    EXPECT_EQ(r.knob.Get(), r.max);
    EXPECT_EQ(r.knob.Reset(), r.def);
  }
  // The probe widths round up to the next compiled width.
  for (Tunable* t : {&ProbeGroupSize(), &AmacRingWidth()}) {
    EXPECT_EQ(t->Set(5), 8u);
    EXPECT_EQ(t->Set(9), 16u);
    EXPECT_EQ(t->Set(17), 32u);
  }
}

TEST_F(TuneTest, ApplyAllPublishesEveryField) {
  // ApplyMachine publishes a whole model: every core knob goes back to its
  // spec default, then the model's caches and ISA set the two derived ones.
  Tunable* const knobs[] = {
      &ProbeGroupSize(),       &AmacRingWidth(),    &AmacMinTableBytes(),
      &StreamBatchRows(),      &StreamMaxInflight(), &StreamLatenessBound(),
      &EpochAdvanceInterval(), &EpochRetireBatch(), &MorselRows(),
      &SimdBackend()};
  for (Tunable* t : knobs) t->Set(t->spec().min);
  hw::MachineModel m = hw::MachineModel::Server2013();
  ApplyMachine(m);
  for (Tunable* t : knobs) {
    SCOPED_TRACE(t->spec().name);
    if (t == &AmacMinTableBytes() || t == &SimdBackend()) continue;
    EXPECT_EQ(t->Get(), t->spec().default_value);
  }
  EXPECT_EQ(AmacMinTableBytes().Get(),
            m.caches.back().size_bytes / m.cores);

  // A model that lists no caches leaves the gate at its spec default.
  m.caches.clear();
  ApplyMachine(m);
  EXPECT_EQ(AmacMinTableBytes().Get(),
            AmacMinTableBytes().spec().default_value);

  // simd.backend is the best backend the model's ISA supports.
  EXPECT_EQ(SimdBackend().Get(), 2u);  // hand-built models claim AVX2
  m.isa = {};
  m.isa.sse42 = true;
  ApplyMachine(m);
  EXPECT_EQ(SimdBackend().Get(), 1u);
  m.isa = {};
  ApplyMachine(m);
  EXPECT_EQ(SimdBackend().Get(), 0u);
  hw::CpuTopology topo;
  topo.logical_cores = 4;
  topo.isa.avx2 = true;
  ApplyMachine(hw::MachineModel::FromHost(topo));
  EXPECT_EQ(SimdBackend().Get(), 2u);
}

TEST_F(TuneTest, FromHostDerivesAmacGateFromCaches) {
  // A shared LLC: the gate is the per-core share of it.
  hw::CpuTopology topo;
  topo.logical_cores = 8;
  topo.caches = {{1, "Data", 32u << 10, 64, 8, false},
                 {2, "Unified", 256u << 10, 64, 8, false},
                 {3, "Unified", 16u << 20, 64, 16, true}};
  ApplyMachine(hw::MachineModel::FromHost(topo));
  EXPECT_EQ(AmacMinTableBytes().Get(), (16u << 20) / 8);

  // No shared level: the last private level is the gate.
  topo.caches = {{1, "Data", 32u << 10, 64, 8, false},
                 {2, "Unified", 512u << 10, 64, 8, false}};
  ApplyMachine(hw::MachineModel::FromHost(topo));
  EXPECT_EQ(AmacMinTableBytes().Get(), 512u << 10);

  // A level under the knob's 64KB floor clamps up to it.
  topo.caches = {{1, "Data", 32u << 10, 64, 8, false}};
  ApplyMachine(hw::MachineModel::FromHost(topo));
  EXPECT_EQ(AmacMinTableBytes().Get(), 64u << 10);

  // No cache info at all: FromHost keeps Server2013's hierarchy, so the
  // gate is the per-core share of its 20MB shared LLC.
  topo.caches.clear();
  ApplyMachine(hw::MachineModel::FromHost(topo));
  EXPECT_EQ(AmacMinTableBytes().Get(), (20u << 20) / 8);
}

// --- Concurrency: the sanitize-label substance -------------------------

TEST_F(TuneTest, ConcurrentSetGetEveryKnobStaysInBounds) {
  // Register the full core set, then hammer every knob from writer
  // threads while readers assert the invariant: any observed value is in
  // bounds and structurally valid. Run under TSan via the sanitize label.
  std::vector<Tunable*> knobs = {
      &ProbeGroupSize(),    &AmacRingWidth(),       &AmacMinTableBytes(),
      &StreamBatchRows(),   &StreamMaxInflight(),   &StreamLatenessBound(),
      &EpochAdvanceInterval(), &EpochRetireBatch(), &MorselRows()};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      uint64_t x = 0x9E3779B97F4A7C15ULL * (w + 1);
      for (int i = 0; i < 4000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        for (Tunable* t : knobs) t->Set(x >> (i % 32));
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (Tunable* t : knobs) {
          const uint64_t v = t->Get();
          const TunableSpec& spec = t->spec();
          ASSERT_GE(v, spec.min);
          ASSERT_LE(v, spec.max);
          if (spec.power_of_two) {
            ASSERT_TRUE(IsPow2(v));
          }
        }
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true, std::memory_order_release);
  threads[2].join();
  threads[3].join();
}

TEST_F(TuneTest, GroupWidthFlipMidRunIsBitIdentical) {
  // The tentpole's safety claim in executable form: flipping the probe
  // group width (and the AMAC gate) while FindBatch streams batches must
  // never change a result, only the miss-overlap schedule. Expected
  // values come from the scalar path up front.
  const uint64_t build_n = 40'000;
  ops::LinearProbeTable gp_table(build_n);
  ops::ChainedTable amac_table(build_n);
  for (uint64_t i = 0; i < build_n; ++i) {
    const uint64_t key = i * 0x9E3779B97F4A7C15ULL + 1;
    gp_table.Insert(key, i + 1);
    amac_table.Insert(key, i + 1);
  }
  const size_t n = 4096;
  std::vector<uint64_t> probes(n);
  for (size_t i = 0; i < n; ++i) {
    // Mostly hits, every 7th a guaranteed miss.
    probes[i] = i % 7 == 0 ? i * 2 + 2  // even keys are never inserted
                           : (i * 131) % build_n * 0x9E3779B97F4A7C15ULL + 1;
  }
  std::vector<uint64_t> want_values(n);
  std::vector<uint8_t> want_found(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    want_found[i] = gp_table.Find(probes[i], &v);
    want_values[i] = want_found[i] ? v : 0;
    // Both tables hold identical contents.
    uint64_t cv = 0;
    ASSERT_EQ(amac_table.Find(probes[i], &cv), (bool)want_found[i]);
  }

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    const uint32_t widths[] = {4, 8, 16, 32};
    const uint64_t gates[] = {64u << 10, 1u << 30};  // ring-on / ring-off
    uint32_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ProbeGroupSize().Set(widths[i % 4]);
      AmacRingWidth().Set(widths[(i + 1) % 4]);
      AmacMinTableBytes().Set(gates[i % 2]);
      ++i;
      std::this_thread::yield();
    }
  });

  std::vector<uint64_t> values(n);
  std::unique_ptr<bool[]> found_buf(new bool[n]);
  for (int iter = 0; iter < 150; ++iter) {
    // group 0 = read the (racing) knob; results must not care.
    const size_t gp_hits =
        gp_table.FindBatch(probes.data(), n, values.data(), found_buf.get(),
                           /*group_size=*/0);
    size_t want_hits = 0;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(values[i], want_values[i]) << "iter " << iter << " i " << i;
      ASSERT_EQ(found_buf[i], (bool)want_found[i]);
      want_hits += want_found[i];
    }
    ASSERT_EQ(gp_hits, want_hits);

    const size_t amac_hits =
        amac_table.FindBatch(probes.data(), n, values.data(), found_buf.get(),
                             /*group_size=*/0);
    ASSERT_EQ(amac_hits, want_hits);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(values[i], want_values[i]) << "iter " << iter << " i " << i;
      ASSERT_EQ(found_buf[i], (bool)want_found[i]);
    }
  }
  stop.store(true, std::memory_order_release);
  flipper.join();
}

// --- Calibrator --------------------------------------------------------

TEST_F(TuneTest, CalibratorRunOnceTerminatesAndInstallsInBounds) {
  // Tier-1, 1-CPU-safe: tiny footprints, one repetition. The assertion
  // is the contract, not the winner: RunOnce returns, and what it
  // installed is inside every spec bound.
  CalibratorOptions opts;
  opts.footprints = {1u << 16, 1u << 18};
  opts.max_table_bytes = 1u << 20;
  opts.keys_per_trial = 2048;
  opts.repetitions = 1;
  Calibrator calibrator(opts);
  const CalibrationResult result = calibrator.RunOnce();

  EXPECT_TRUE(result.installed);
  EXPECT_EQ(result.trials.size(), 2u);
  EXPECT_GE(result.probe_group_size, ProbeGroupSize().spec().min);
  EXPECT_LE(result.probe_group_size, ProbeGroupSize().spec().max);
  EXPECT_TRUE(IsPow2(result.probe_group_size));
  EXPECT_GE(result.amac_ring_width, AmacRingWidth().spec().min);
  EXPECT_LE(result.amac_ring_width, AmacRingWidth().spec().max);
  EXPECT_TRUE(IsPow2(result.amac_ring_width));
  EXPECT_GE(result.amac_min_table_bytes, AmacMinTableBytes().spec().min);
  EXPECT_LE(result.amac_min_table_bytes, AmacMinTableBytes().spec().max);
  // The installs actually landed in the registry.
  EXPECT_EQ(ProbeGroupSize().Get(), result.probe_group_size);
  EXPECT_EQ(AmacRingWidth().Get(), result.amac_ring_width);
  EXPECT_EQ(AmacMinTableBytes().Get(), result.amac_min_table_bytes);
  EXPECT_FALSE(result.ToString().empty());

  // install=false measures without touching the registry.
  Registry::Global().ResetAll();
  opts.install = false;
  const CalibrationResult dry = Calibrator(opts).RunOnce();
  EXPECT_FALSE(dry.installed);
  EXPECT_EQ(ProbeGroupSize().Get(), ProbeGroupSize().spec().default_value);
}

TEST_F(TuneTest, CalibratorInstallsSimdBackendInBounds) {
  // The SIMD trial must install a backend the *host* can execute — on a
  // machine without AVX2 (or a scalar-only build) the winner is clamped
  // to [0, BestSupported()], never just the compile-time maximum. The
  // winner is a measurement so the test asserts the contract, not which
  // backend won.
  CalibratorOptions opts;
  opts.footprints = {1u << 16};
  opts.max_table_bytes = 1u << 20;
  opts.keys_per_trial = 2048;
  opts.repetitions = 1;
  const CalibrationResult result = Calibrator(opts).RunOnce();

  const uint32_t best = static_cast<uint32_t>(simd::BestSupported());
  EXPECT_LE(result.simd_backend, best);
  EXPECT_EQ(SimdBackend().Get(), result.simd_backend);
  // The trial measured scalar plus every supported vector backend, with
  // one scan and one probe sample per backend.
  ASSERT_EQ(result.simd_backends.size(), static_cast<size_t>(best) + 1);
  EXPECT_EQ(result.simd_scan_ns.size(), result.simd_backends.size());
  EXPECT_EQ(result.simd_probe_ns.size(), result.simd_backends.size());
  EXPECT_EQ(result.simd_backends.front(), 0u);  // scalar is always tried
  for (size_t i = 0; i < result.simd_backends.size(); ++i) {
    EXPECT_EQ(result.simd_backends[i], i);
    EXPECT_GT(result.simd_scan_ns[i], 0.0);
    EXPECT_GT(result.simd_probe_ns[i], 0.0);
  }
  // The report names the winning backend.
  EXPECT_NE(result.ToString().find("simd"), std::string::npos);
}

// --- svc surface -------------------------------------------------------

TEST_F(TuneTest, ServiceDumpsTunablesAndAppliesConfigHook) {
  // The config hook is the registry's by-name Set, applied before the
  // service is built (through the central clamp).
  ASSERT_TRUE(Registry::Global().Set("stream.batch_rows", 512));
  ASSERT_TRUE(Registry::Global().Set("probe.group_size", 8));
  svc::ServiceOptions options;
  options.worker_threads = 1;
  kv::KvStore kv;
  svc::Service service(options, &kv);
  EXPECT_EQ(StreamBatchRows().Get(), 512u);
  EXPECT_EQ(ProbeGroupSize().Get(), 8u);
  // Metrics dump carries the knob lines next to the metric lines.
  const std::string dump = service.DumpMetricsText();
  EXPECT_NE(dump.find("svc.completed"), std::string::npos);
  EXPECT_NE(dump.find("tunable stream.batch_rows 512"), std::string::npos);
  EXPECT_NE(dump.find("tunable probe.group_size 8"), std::string::npos);
  EXPECT_EQ(service.DumpTunablesText(), Registry::Global().DumpText());
}

}  // namespace
}  // namespace hwstar::tune
