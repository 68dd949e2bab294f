#include <gtest/gtest.h>

#include "hwstar/sim/coherence.h"

namespace hwstar::sim {
namespace {

TEST(CoherenceTest, PrivateDataStaysCheap) {
  CoherenceModel model(2);
  // Each core reads and writes only its own region: after warmup all hits,
  // no invalidations.
  for (int rep = 0; rep < 3; ++rep) {
    for (uint64_t i = 0; i < 64; ++i) {
      model.Access(0, i * 64, rep == 2);
      model.Access(1, (1 << 20) + i * 64, rep == 2);
    }
  }
  EXPECT_EQ(model.stats().invalidations_sent, 0u);
  EXPECT_EQ(model.stats().coherence_misses, 0u);
}

TEST(CoherenceTest, WriteInvalidatesOtherCopies) {
  CoherenceModel model(2);
  model.Access(0, 0, false);  // core 0 caches the line
  model.Access(1, 0, false);  // core 1 caches it too (shared)
  model.Access(0, 0, true);   // write: must invalidate core 1
  EXPECT_EQ(model.stats().invalidations_sent, 1u);
  // Core 1's next read is a coherence miss served by transfer.
  const uint32_t lat = model.Access(1, 0, false);
  EXPECT_EQ(model.stats().coherence_misses, 1u);
  EXPECT_GT(lat, 4u);
}

TEST(CoherenceTest, ReadAfterRemoteWriteDowngrades) {
  CoherenceModel model(2);
  model.Access(0, 0, true);   // core 0 modified
  model.Access(1, 0, false);  // coherence miss + downgrade to shared
  EXPECT_EQ(model.stats().coherence_misses, 1u);
  // Now both shared: reads hit on both sides.
  model.ResetStats();
  model.Access(0, 0, false);
  model.Access(1, 0, false);
  EXPECT_EQ(model.stats().hits, 2u);
}

TEST(CoherenceTest, PingPongIsExpensive) {
  // Two cores alternately writing one line: every access invalidates.
  CoherenceModel model(2);
  // Baseline: each core writes its own line.
  CoherenceModel private_model(2);
  for (int i = 0; i < 1000; ++i) {
    model.Access(i % 2, 0, true);
    private_model.Access(i % 2, (i % 2) * 4096, true);
  }
  EXPECT_GT(model.stats().cycles_per_access(),
            5 * private_model.stats().cycles_per_access());
  EXPECT_GT(model.stats().invalidations_sent, 900u);
}

TEST(CoherenceTest, FalseSharingVsPadding) {
  // 2 cores incrementing independent counters. Packed: both counters in
  // one line. Padded: one line each. The packed layout ping-pongs even
  // though the *data* is disjoint -- false sharing.
  CoherenceModel packed(2), padded(2);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t core = i % 2;
    packed.Access(core, core * 8, true);       // same 64B line
    padded.Access(core, core * 64, true);      // separate lines
  }
  EXPECT_GT(packed.stats().cycles_per_access(),
            5 * padded.stats().cycles_per_access());
  EXPECT_EQ(padded.stats().invalidations_sent, 0u);
}

TEST(CoherenceTest, CapacityEvictionsStillWork) {
  CoherenceModel::Options opts;
  opts.private_cache_lines = 4;
  CoherenceModel model(1, opts);
  for (uint64_t i = 0; i < 8; ++i) model.Access(0, i * 64, false);
  // Re-reading the first line misses again (evicted).
  model.ResetStats();
  model.Access(0, 0, false);
  EXPECT_EQ(model.stats().capacity_misses, 1u);
}

TEST(CoherenceTest, PerCoreStatsSeparate) {
  CoherenceModel model(2);
  model.Access(0, 0, false);
  model.Access(0, 0, false);
  model.Access(1, 4096, true);
  EXPECT_EQ(model.core_stats(0).reads, 2u);
  EXPECT_EQ(model.core_stats(0).writes, 0u);
  EXPECT_EQ(model.core_stats(1).writes, 1u);
}

}  // namespace
}  // namespace hwstar::sim
