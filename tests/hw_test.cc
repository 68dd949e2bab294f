#include <gtest/gtest.h>

#include "hwstar/hw/machine_model.h"
#include "hwstar/hw/topology.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::hw {
namespace {

TEST(TopologyTest, DiscoversSomething) {
  CpuTopology topo = DiscoverTopology();
  EXPECT_GE(topo.logical_cores, 1u);
  ASSERT_FALSE(topo.caches.empty());
  // At minimum an L1 data/unified cache with a sane line size.
  EXPECT_GT(topo.CacheSizeBytes(1), 0u);
  for (const auto& c : topo.caches) {
    EXPECT_GE(c.line_bytes, 16u);
    EXPECT_LE(c.line_bytes, 256u);
    EXPECT_GT(c.size_bytes, 0u);
  }
}

TEST(TopologyTest, CacheLevelsIncreaseInSize) {
  CpuTopology topo = DiscoverTopology();
  uint64_t prev = 0;
  for (const auto& c : topo.caches) {
    EXPECT_GE(c.size_bytes, prev);
    prev = c.size_bytes;
  }
}

TEST(TopologyTest, ToStringMentionsCores) {
  CpuTopology topo = DiscoverTopology();
  EXPECT_NE(topo.ToString().find("cores="), std::string::npos);
}

TEST(MachineModelTest, Server2013Shape) {
  MachineModel m = MachineModel::Server2013();
  ASSERT_EQ(m.caches.size(), 3u);
  EXPECT_LT(m.caches[0].size_bytes, m.caches[1].size_bytes);
  EXPECT_LT(m.caches[1].size_bytes, m.caches[2].size_bytes);
  EXPECT_LT(m.caches[0].hit_latency_cycles, m.caches[1].hit_latency_cycles);
  EXPECT_LT(m.caches[2].hit_latency_cycles, m.dram_latency_cycles);
  EXPECT_EQ(m.numa_nodes, 2u);
  EXPECT_GT(m.numa_remote_multiplier, 1.0);
}

TEST(MachineModelTest, ManyCoreHasNoL3) {
  MachineModel m = MachineModel::ManyCore();
  EXPECT_EQ(m.caches.size(), 2u);
  EXPECT_GT(m.cores, MachineModel::Server2013().cores);
}

TEST(MachineModelTest, DesktopIsUniformMemory) {
  MachineModel m = MachineModel::Desktop();
  EXPECT_EQ(m.numa_nodes, 1u);
  EXPECT_DOUBLE_EQ(m.numa_remote_multiplier, 1.0);
}

TEST(MachineModelTest, FromHostUsesDiscoveredCaches) {
  CpuTopology topo = DiscoverTopology();
  MachineModel m = MachineModel::FromHost(topo);
  EXPECT_EQ(m.cores, topo.logical_cores);
  EXPECT_EQ(m.caches.size(), topo.caches.size());
  EXPECT_EQ(m.caches[0].size_bytes, topo.caches[0].size_bytes);
  EXPECT_EQ(m.isa.ToString(), topo.isa.ToString());
}

TEST(MachineModelTest, EnergyRatiosAreHierarchical) {
  MachineModel m = MachineModel::Server2013();
  EXPECT_LT(m.energy_pj_l1_hit, m.energy_pj_l2_hit);
  EXPECT_LT(m.energy_pj_l2_hit, m.energy_pj_l3_hit);
  EXPECT_LT(m.energy_pj_l3_hit, m.energy_pj_dram);
  // DRAM should be roughly two orders of magnitude above L1.
  EXPECT_GT(m.energy_pj_dram / m.energy_pj_l1_hit, 50.0);
}

TEST(MachineModelTest, ToStringIsInformative) {
  std::string s = MachineModel::Server2013().ToString();
  EXPECT_NE(s.find("server2013"), std::string::npos);
  EXPECT_NE(s.find("dram="), std::string::npos);
  // Hand-built models claim the ISA the best compiled backend needs.
  EXPECT_NE(s.find("isa=sse4.2 avx2"), std::string::npos);
}

TEST(MachineModelTest, StreamKnobDefaultsAndClamping) {
  // The knobs are process-wide: leave them at their spec defaults.
  tune::ApplyMachine(MachineModel{});
  EXPECT_EQ(tune::StreamBatchRows().Get(), 4096u);
  EXPECT_EQ(tune::StreamMaxInflight().Get(), 8u);
  EXPECT_EQ(tune::StreamLatenessBound().Get(), 1024u);

  tune::StreamBatchRows().Set(1);  // clamped up to 64
  EXPECT_EQ(tune::StreamBatchRows().Get(), 64u);
  tune::StreamBatchRows().Set(1u << 30);  // clamped down to 1M rows
  EXPECT_EQ(tune::StreamBatchRows().Get(), 1u << 20);
  tune::StreamBatchRows().Set(2048);
  EXPECT_EQ(tune::StreamBatchRows().Get(), 2048u);

  tune::StreamMaxInflight().Set(0);  // clamped up to 1
  EXPECT_EQ(tune::StreamMaxInflight().Get(), 1u);
  tune::StreamMaxInflight().Set(1 << 20);  // clamped down to 4096
  EXPECT_EQ(tune::StreamMaxInflight().Get(), 4096u);

  tune::StreamLatenessBound().Set(0);  // 0 is legal: nothing may be late
  EXPECT_EQ(tune::StreamLatenessBound().Get(), 0u);

  tune::Registry::Global().ResetAll();
}

TEST(MachineModelTest, SyncKnobDefaultsAndClamping) {
  tune::ApplyMachine(MachineModel{});
  EXPECT_EQ(tune::EpochAdvanceInterval().Get(), 64u);
  EXPECT_EQ(tune::EpochRetireBatch().Get(), 128u);

  tune::EpochAdvanceInterval().Set(0);  // clamped up to 1
  EXPECT_EQ(tune::EpochAdvanceInterval().Get(), 1u);
  tune::EpochAdvanceInterval().Set(~0u);  // clamped down to 1M
  EXPECT_EQ(tune::EpochAdvanceInterval().Get(), 1u << 20);
  tune::EpochAdvanceInterval().Set(256);
  EXPECT_EQ(tune::EpochAdvanceInterval().Get(), 256u);

  tune::EpochRetireBatch().Set(0);  // clamped up to 1
  EXPECT_EQ(tune::EpochRetireBatch().Get(), 1u);
  tune::EpochRetireBatch().Set(~0u);  // clamped down to 1M
  EXPECT_EQ(tune::EpochRetireBatch().Get(), 1u << 20);

  // Applying a model puts the epoch knobs back: the model carries no
  // opinion about them.
  tune::ApplyMachine(MachineModel::ManyCore());
  EXPECT_EQ(tune::EpochAdvanceInterval().Get(), 64u);
  EXPECT_EQ(tune::EpochRetireBatch().Get(), 128u);

  tune::Registry::Global().ResetAll();
}

TEST(MachineModelTest, ApplyAllPublishesModelValues) {
  // ManyCore has no shared level, so its AMAC gate is the last private
  // cache; its hand-built ISA requests the AVX2 backend. The stream knobs
  // stay at their spec defaults.
  const MachineModel m = MachineModel::ManyCore();
  tune::StreamBatchRows().Set(512);
  tune::ApplyMachine(m);
  EXPECT_EQ(tune::AmacMinTableBytes().Get(), m.caches.back().size_bytes);
  EXPECT_EQ(tune::SimdBackend().Get(), 2u);
  EXPECT_EQ(tune::StreamBatchRows().Get(), 4096u);
  EXPECT_EQ(tune::StreamMaxInflight().Get(), 8u);
  EXPECT_EQ(tune::StreamLatenessBound().Get(), 1024u);

  tune::Registry::Global().ResetAll();
}

}  // namespace
}  // namespace hwstar::hw
