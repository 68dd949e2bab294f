#include <vector>

#include <gtest/gtest.h>

#include "hwstar/common/random.h"
#include "hwstar/ops/bloom_filter.h"
#include "hwstar/simd/backend.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::ops {
namespace {

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(1000, 10);
  for (uint64_t k = 0; k < 1000; ++k) filter.Add(k * 7);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_TRUE(filter.MayContain(k * 7)) << k;
  }
}

TEST(BloomFilterTest, FppNearTheory) {
  // 10 bits/key, k=7 -> theoretical fpp ~1%.
  BloomFilter filter(100000, 10);
  for (uint64_t k = 0; k < 100000; ++k) filter.Add(k);
  std::vector<uint64_t> absent;
  for (uint64_t k = 0; k < 50000; ++k) absent.push_back(1000000 + k);
  const double fpp = filter.MeasureFpp(absent);
  EXPECT_LT(fpp, 0.03);
}

TEST(BloomFilterTest, MoreBitsLowerFpp) {
  auto fpp_at = [](uint32_t bits_per_key) {
    BloomFilter f(20000, bits_per_key);
    for (uint64_t k = 0; k < 20000; ++k) f.Add(k);
    std::vector<uint64_t> absent;
    for (uint64_t k = 0; k < 20000; ++k) absent.push_back(1 << 24 | k);
    return f.MeasureFpp(absent);
  };
  EXPECT_GT(fpp_at(4), fpp_at(12));
}

TEST(BlockedBloomFilterTest, NoFalseNegatives) {
  BlockedBloomFilter filter(5000, 10);
  for (uint64_t k = 0; k < 5000; ++k) filter.Add(k * 13 + 1);
  for (uint64_t k = 0; k < 5000; ++k) {
    EXPECT_TRUE(filter.MayContain(k * 13 + 1)) << k;
  }
}

TEST(BlockedBloomFilterTest, FppReasonable) {
  // Blocked filters trade a somewhat higher fpp for single-line probes.
  BlockedBloomFilter filter(100000, 10);
  for (uint64_t k = 0; k < 100000; ++k) filter.Add(k);
  std::vector<uint64_t> absent;
  for (uint64_t k = 0; k < 50000; ++k) absent.push_back(1000000 + k);
  EXPECT_LT(filter.MeasureFpp(absent), 0.08);
}

TEST(BlockedBloomFilterTest, BlockCountSized) {
  BlockedBloomFilter filter(1 << 16, 10);
  EXPECT_GE(filter.num_blocks() * BlockedBloomFilter::kBlockBits,
            uint64_t{1} << 16);
  EXPECT_EQ(filter.MemoryBytes(), filter.num_blocks() * 64);
}

/// Property: both filter variants are false-negative-free across sizes.
class BloomProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BloomProperty, NeverFalseNegative) {
  const uint64_t n = GetParam();
  hwstar::Xoshiro256 rng(n);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.Next();
  BloomFilter plain(n, 8);
  BlockedBloomFilter blocked(n, 8);
  for (uint64_t k : keys) {
    plain.Add(k);
    blocked.Add(k);
  }
  for (uint64_t k : keys) {
    ASSERT_TRUE(plain.MayContain(k));
    ASSERT_TRUE(blocked.MayContain(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BloomProperty,
                         ::testing::Values(1u, 10u, 1000u, 100000u));

TEST(BloomSimdTest, BatchMatchesSingleUnderEveryBackend) {
  // MayContainBatch (group-prefetched, simd-hashed) must agree with
  // per-key MayContain on every key, for both filter variants, under
  // every backend the knob can force — including an odd batch length so
  // the vectorized hash sweep leaves a scalar tail.
  const uint64_t saved = tune::SimdBackend().Get();
  hwstar::Xoshiro256 rng(4242);
  const size_t n = 10007;
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    // Half present, half random (mostly absent).
    keys[i] = (i % 2 == 0) ? i / 2 : rng.Next();
  }
  BloomFilter plain(n / 2, 10);
  BlockedBloomFilter blocked(n / 2, 10);
  for (size_t i = 0; i < n; i += 2) {
    plain.Add(keys[i]);
    blocked.Add(keys[i]);
  }

  for (uint64_t knob = 0;
       knob <= static_cast<uint64_t>(simd::Backend::kAvx2); ++knob) {
    tune::SimdBackend().Set(knob);
    std::unique_ptr<bool[]> got_plain(new bool[n]);
    std::unique_ptr<bool[]> got_blocked(new bool[n]);
    plain.MayContainBatch(keys.data(), n, got_plain.get());
    blocked.MayContainBatch(keys.data(), n, got_blocked.get());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got_plain[i], plain.MayContain(keys[i]))
          << "knob=" << knob << " i=" << i;
      ASSERT_EQ(got_blocked[i], blocked.MayContain(keys[i]))
          << "knob=" << knob << " i=" << i;
    }
  }
  tune::SimdBackend().Set(saved);
}

TEST(BloomSimdTest, BlockedMayContainBackendInvariant) {
  // The single-key blocked probe runs one whole-line simd::TestBlock512;
  // its answer must not depend on the backend.
  const uint64_t saved = tune::SimdBackend().Get();
  BlockedBloomFilter filter(5000, 10);
  for (uint64_t k = 0; k < 5000; ++k) filter.Add(k * 3 + 1);

  tune::SimdBackend().Set(0);
  std::vector<bool> expect(20000);
  for (uint64_t k = 0; k < 20000; ++k) expect[k] = filter.MayContain(k);

  for (uint64_t knob = 1;
       knob <= static_cast<uint64_t>(simd::Backend::kAvx2); ++knob) {
    tune::SimdBackend().Set(knob);
    for (uint64_t k = 0; k < 20000; ++k) {
      ASSERT_EQ(filter.MayContain(k), expect[k])
          << "knob=" << knob << " key=" << k;
    }
  }
  tune::SimdBackend().Set(saved);
}

}  // namespace
}  // namespace hwstar::ops
