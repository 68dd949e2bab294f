// Cross-backend bit-identity for every hwstar::simd kernel: each vector
// backend the host supports must produce exactly the scalar backend's
// output on randomized inputs, odd tail lengths, empty inputs, and the
// all-hit / all-miss corners. The suite also pins the dispatch contract:
// ActiveBackend() is the tune::SimdBackend knob clamped to
// BestSupported(), so forcing the knob works on any host and forcing it
// above the host's capability degrades gracefully.

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "hwstar/common/hash.h"
#include "hwstar/common/random.h"
#include "hwstar/simd/backend.h"
#include "hwstar/simd/kernels.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::simd {
namespace {

// Lengths that exercise empty input, sub-lane sizes, exact lane/word
// multiples, and ragged tails for both the 2-lane and 4-lane backends.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16,
                           63, 64, 65, 127, 128, 1000, 4097};

std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends;
  for (uint32_t b = 0; b <= static_cast<uint32_t>(BestSupported()); ++b) {
    backends.push_back(static_cast<Backend>(b));
  }
  return backends;
}

/// Saves the tune::SimdBackend knob and restores it on scope exit so
/// forced-backend tests cannot leak into the rest of the binary.
class KnobGuard {
 public:
  KnobGuard() : saved_(tune::SimdBackend().Get()) {}
  ~KnobGuard() { tune::SimdBackend().Set(saved_); }

 private:
  uint64_t saved_;
};

TEST(SimdBackendTest, CapabilityOrderAndNames) {
  EXPECT_LT(Backend::kScalar, Backend::kSse42);
  EXPECT_LT(Backend::kSse42, Backend::kAvx2);
  EXPECT_STREQ(BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(Backend::kSse42), "sse42");
  EXPECT_STREQ(BackendName(Backend::kAvx2), "avx2");
  EXPECT_EQ(LaneCount(Backend::kScalar), 1u);
  EXPECT_EQ(LaneCount(Backend::kSse42), 2u);
  EXPECT_EQ(LaneCount(Backend::kAvx2), 4u);
}

TEST(SimdBackendTest, ActiveIsKnobClampedToBestSupported) {
  KnobGuard guard;
  const Backend best = BestSupported();

  // Forcing scalar always yields scalar: the vector paths must be
  // optional on every host (this is the knob the forced-portable CI leg
  // and the calibrator's trial loop rely on).
  tune::SimdBackend().Set(0);
  EXPECT_EQ(ActiveBackend(), Backend::kScalar);

  // Forcing the top backend yields the best the host has, never more.
  tune::SimdBackend().Set(static_cast<uint64_t>(Backend::kAvx2));
  EXPECT_EQ(ActiveBackend(), best);

  // Every in-range request at or below best is honored exactly.
  for (Backend b : SupportedBackends()) {
    tune::SimdBackend().Set(static_cast<uint64_t>(b));
    EXPECT_EQ(ActiveBackend(), b) << BackendName(b);
  }
}

TEST(SimdKernelsTest, Mix64BatchMatchesScalarMix64) {
  Xoshiro256 rng(17);
  for (size_t n : kLengths) {
    std::vector<uint64_t> keys(n);
    for (auto& k : keys) k = rng.Next();
    for (uint64_t xor_mask : {uint64_t{0}, uint64_t{0x9e3779b97f4a7c15ULL}}) {
      std::vector<uint64_t> expect(n);
      for (size_t i = 0; i < n; ++i) expect[i] = Mix64(keys[i] ^ xor_mask);
      for (Backend b : SupportedBackends()) {
        std::vector<uint64_t> got(n, 0xdeadbeefULL);
        Mix64Batch(b, keys.data(), n, got.data(), xor_mask);
        EXPECT_EQ(got, expect) << BackendName(b) << " n=" << n
                               << " mask=" << xor_mask;
      }
    }
  }
}

TEST(SimdKernelsTest, BuildRangeBitmapMatchesScalarBitLoop) {
  Xoshiro256 rng(29);
  for (size_t n : kLengths) {
    std::vector<int64_t> values(n);
    for (auto& v : values) v = rng.NextInRange(-1000, 1000);
    struct Range {
      int64_t lo, hi;
    };
    const Range ranges[] = {
        {-100, 100},  // mixed hits
        {-2000, 2000},  // all-hit
        {5000, 6000},  // all-miss
        {0, 0},  // empty interval
        {std::numeric_limits<int64_t>::min(),
         std::numeric_limits<int64_t>::max()},  // extreme bounds
    };
    const size_t num_words = (n + 63) / 64;
    for (const Range& r : ranges) {
      std::vector<uint64_t> expect(num_words, 0);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t bit = static_cast<uint64_t>(values[i] >= r.lo) &
                             static_cast<uint64_t>(values[i] < r.hi);
        expect[i >> 6] |= bit << (i & 63);
      }
      for (Backend b : SupportedBackends()) {
        // Poisoned so a word the kernel failed to overwrite is caught.
        std::vector<uint64_t> got(num_words, ~uint64_t{0});
        BuildRangeBitmap(b, values.data(), n, r.lo, r.hi, got.data());
        EXPECT_EQ(got, expect)
            << BackendName(b) << " n=" << n << " [" << r.lo << ", " << r.hi
            << ")";
        EXPECT_EQ(CountInRange(b, values.data(), n, r.lo, r.hi),
                  CountInRange(Backend::kScalar, values.data(), n, r.lo, r.hi))
            << BackendName(b) << " n=" << n;
      }
    }
  }
}

TEST(SimdKernelsTest, SumMatchesWrappingScalarSum) {
  Xoshiro256 rng(43);
  for (size_t n : kLengths) {
    std::vector<int64_t> values(n);
    for (auto& v : values) v = static_cast<int64_t>(rng.Next());
    // Force wraparound: the contract is mod-2^64, not saturating.
    if (n >= 2) {
      values[0] = std::numeric_limits<int64_t>::max();
      values[1] = std::numeric_limits<int64_t>::max();
    }
    uint64_t expect = 0;
    for (int64_t v : values) expect += static_cast<uint64_t>(v);
    for (Backend b : SupportedBackends()) {
      EXPECT_EQ(static_cast<uint64_t>(Sum(b, values.data(), n)), expect)
          << BackendName(b) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, MinMaxMatchScalar) {
  Xoshiro256 rng(59);
  for (size_t n : kLengths) {
    if (n == 0) continue;  // Min/Max require n > 0 (callers guard empty).
    std::vector<int64_t> values(n);
    for (auto& v : values) v = static_cast<int64_t>(rng.Next());
    int64_t expect_min = values[0];
    int64_t expect_max = values[0];
    for (int64_t v : values) {
      expect_min = v < expect_min ? v : expect_min;
      expect_max = v > expect_max ? v : expect_max;
    }
    for (Backend b : SupportedBackends()) {
      EXPECT_EQ(Min(b, values.data(), n), expect_min)
          << BackendName(b) << " n=" << n;
      EXPECT_EQ(Max(b, values.data(), n), expect_max)
          << BackendName(b) << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, MinMaxExtremesSurvive) {
  // INT64_MIN / INT64_MAX in every lane position of a 4-lane step.
  for (size_t pos = 0; pos < 8; ++pos) {
    std::vector<int64_t> values(8, 0);
    values[pos] = std::numeric_limits<int64_t>::min();
    values[7 - pos] = std::numeric_limits<int64_t>::max();
    for (Backend b : SupportedBackends()) {
      EXPECT_EQ(Min(b, values.data(), values.size()),
                std::numeric_limits<int64_t>::min())
          << BackendName(b) << " pos=" << pos;
      EXPECT_EQ(Max(b, values.data(), values.size()),
                std::numeric_limits<int64_t>::max())
          << BackendName(b) << " pos=" << pos;
    }
  }
}

TEST(SimdKernelsTest, TestBlock512MatchesScalarWordWalk) {
  Xoshiro256 rng(71);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t block[8];
    uint64_t mask[8];
    for (int w = 0; w < 8; ++w) {
      block[w] = rng.Next();
      // Bias masks sparse so both outcomes occur often.
      mask[w] = rng.Next() & rng.Next() & rng.Next();
    }
    bool expect = true;
    for (int w = 0; w < 8; ++w) {
      expect = expect && (block[w] & mask[w]) == mask[w];
    }
    for (Backend b : SupportedBackends()) {
      EXPECT_EQ(TestBlock512(b, block, mask), expect)
          << BackendName(b) << " trial=" << trial;
    }
  }
}

TEST(SimdKernelsTest, TestBlock512Corners) {
  uint64_t ones[8];
  uint64_t zeros[8] = {};
  for (auto& w : ones) w = ~uint64_t{0};
  for (Backend b : SupportedBackends()) {
    // Empty mask passes against anything; full mask needs a full block.
    EXPECT_TRUE(TestBlock512(b, zeros, zeros)) << BackendName(b);
    EXPECT_TRUE(TestBlock512(b, ones, ones)) << BackendName(b);
    EXPECT_FALSE(TestBlock512(b, zeros, ones)) << BackendName(b);
    // One missing bit in the last word must flip the answer (catches an
    // implementation that early-outs before covering the whole line).
    uint64_t almost[8];
    for (int w = 0; w < 8; ++w) almost[w] = ones[w];
    almost[7] &= ~(uint64_t{1} << 63);
    EXPECT_FALSE(TestBlock512(b, almost, ones)) << BackendName(b);
  }
}

TEST(SimdKernelsTest, ForcedKnobChangesNothingObservable) {
  // The whole point of the bit-identity contract: flipping the knob
  // between batches is invisible in results. Run the convenience wrapper
  // (hwstar::Mix64Batch, which reads ActiveBackend itself) under every
  // forced setting and demand one answer.
  KnobGuard guard;
  Xoshiro256 rng(97);
  std::vector<uint64_t> keys(513);
  for (auto& k : keys) k = rng.Next();

  tune::SimdBackend().Set(0);
  std::vector<uint64_t> expect(keys.size());
  hwstar::Mix64Batch(keys.data(), keys.size(), expect.data());

  for (uint64_t knob = 1; knob <= static_cast<uint64_t>(Backend::kAvx2);
       ++knob) {
    tune::SimdBackend().Set(knob);
    std::vector<uint64_t> got(keys.size());
    hwstar::Mix64Batch(keys.data(), keys.size(), got.data());
    EXPECT_EQ(got, expect) << "knob=" << knob;
  }
}

}  // namespace
}  // namespace hwstar::simd
