#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "hwstar/obs/histogram.h"
#include "hwstar/obs/metric.h"
#include "hwstar/obs/registry.h"

namespace hwstar::obs {
namespace {

// --- Nearest-rank quantile definition -------------------------------------

// The pinned definition: 0-based index ceil(q*n)-1. The regression this
// guards: idx = q*n made p99 of exactly 100 samples return the max
// (index 99) instead of the 99th smallest (index 98).
TEST(NearestRankTest, PinnedDefinition) {
  EXPECT_EQ(NearestRankIndex(0.99, 100), 98u);
  EXPECT_EQ(NearestRankIndex(0.50, 100), 49u);
  EXPECT_EQ(NearestRankIndex(0.90, 100), 89u);
  EXPECT_EQ(NearestRankIndex(1.00, 100), 99u);
  EXPECT_EQ(NearestRankIndex(0.00, 100), 0u);
  EXPECT_EQ(NearestRankIndex(0.01, 100), 0u);
  EXPECT_EQ(NearestRankIndex(0.50, 1), 0u);
  EXPECT_EQ(NearestRankIndex(0.999, 3), 2u);
}

// --- Bucket layout ---------------------------------------------------------

TEST(BucketLayoutTest, BucketsAreContiguousAndExactBelowOneOctave) {
  BucketLayout layout;
  // Unit-width buckets through the first two octaves (values < 128).
  EXPECT_EQ(layout.BucketIndex(0), 0u);
  EXPECT_EQ(layout.BucketIndex(63), 63u);
  EXPECT_EQ(layout.BucketIndex(64), 64u);
  EXPECT_EQ(layout.BucketIndex(127), 127u);
  EXPECT_EQ(layout.BucketIndex(128), 128u);
  for (uint32_t i = 0; i < 128; ++i) {
    EXPECT_EQ(layout.BucketWidth(i), 1u);
    EXPECT_EQ(layout.BucketValue(i), i);
  }
  // Every bucket starts exactly where the previous one ends.
  for (uint32_t i = 0; i + 1 < layout.num_buckets(); ++i) {
    ASSERT_EQ(layout.BucketLowerBound(i) + layout.BucketWidth(i),
              layout.BucketLowerBound(i + 1))
        << "gap at bucket " << i;
  }
}

TEST(BucketLayoutTest, IndexRoundTripsAcrossMagnitudes) {
  BucketLayout layout;
  const uint64_t clamp = (uint64_t{1} << layout.max_value_bits) - 1;
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 100000; ++trial) {
    const uint64_t v = rng() >> (rng() % 64);  // exponentially spread
    const uint32_t index = layout.BucketIndex(v);
    ASSERT_LT(index, layout.num_buckets());
    const uint64_t clamped = std::min(v, clamp);
    const uint64_t lo = layout.BucketLowerBound(index);
    ASSERT_GE(clamped, lo);
    ASSERT_LT(clamped, lo + layout.BucketWidth(index));
    // The reported value is within half a bucket: <= ~0.8% relative.
    if (v <= clamp && v > 0) {
      const double err =
          std::abs(static_cast<double>(layout.BucketValue(index)) -
                   static_cast<double>(v)) /
          static_cast<double>(v);
      ASSERT_LE(err, 1.0 / 128.0 + 1e-9) << "value " << v;
    }
  }
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, ExactForSmallValuesAndPinnedQuantiles) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count(), 100u);
  EXPECT_EQ(s.sum(), 5050u);
  EXPECT_EQ(s.max(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  // Values below 128 land in unit-width buckets, so quantiles are exact —
  // and must follow the nearest-rank definition: p99 of 1..100 is 99.
  EXPECT_EQ(s.Quantile(0.50), 50u);
  EXPECT_EQ(s.Quantile(0.90), 90u);
  EXPECT_EQ(s.Quantile(0.99), 99u);
  EXPECT_EQ(s.Quantile(1.00), 100u);
}

TEST(HistogramTest, QuantilesWithinBucketErrorBound) {
  Histogram h;
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(11.0, 1.5);  // ~µs-scale nanos
  std::vector<uint64_t> values;
  values.reserve(200000);
  for (int i = 0; i < 200000; ++i) {
    const auto v = static_cast<uint64_t>(dist(rng)) + 1;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.count(), values.size());
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const uint64_t exact = values[NearestRankIndex(q, values.size())];
    const uint64_t approx = s.Quantile(q);
    const double rel = std::abs(static_cast<double>(approx) -
                                static_cast<double>(exact)) /
                       static_cast<double>(exact);
    EXPECT_LE(rel, 0.02) << "q=" << q << " exact=" << exact
                         << " approx=" << approx;
  }
}

TEST(HistogramTest, MemoryIsFixedIndependentOfSampleCount) {
  Histogram h;
  h.Record(1);
  const size_t bytes_after_first = h.allocated_bytes();
  EXPECT_GT(bytes_after_first, 0u);
  for (uint64_t i = 0; i < 1000000; ++i) h.Record(i % 100000);
  // A million more samples: not one more byte (same thread, same shard).
  EXPECT_EQ(h.allocated_bytes(), bytes_after_first);
  EXPECT_EQ(h.count(), 1000001u);
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  Histogram a, b, combined;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = rng() % 1000000;
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const HistogramSnapshot expect = combined.Snapshot();
  EXPECT_EQ(merged.count(), expect.count());
  EXPECT_EQ(merged.sum(), expect.sum());
  EXPECT_EQ(merged.max(), expect.max());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(merged.Quantile(q), expect.Quantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, ValuesAboveClampSaturateButMaxStaysExact) {
  Histogram h;
  const uint64_t huge = uint64_t{1} << 50;  // above the 2^42 clamp
  h.Record(huge);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.max(), huge);          // exact max tracked outside buckets
  EXPECT_EQ(s.sum(), huge);          // exact sum too
  EXPECT_GE(s.Quantile(0.5), uint64_t{1} << 41);  // top of range
  EXPECT_LE(s.Quantile(0.5), huge);  // never above the observed max
}

TEST(HistogramTest, EmptySnapshotIsZeroes) {
  Histogram h;
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Quantile(0.99), 0u);
  EXPECT_EQ(s.max(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

// --- Counter / Gauge -------------------------------------------------------

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

// --- Registry --------------------------------------------------------------

TEST(RegistryTest, RegisteredMetricReadsLiveByName) {
  Registry r;
  Counter c;
  Histogram h;
  r.RegisterCounter("requests", &c);
  r.RegisterHistogram("latency", &h);
  c.Add(3);
  EXPECT_NE(r.DumpText().find("counter requests 3\n"), std::string::npos);
  EXPECT_EQ(r.size(), 2u);
}

// One name, one metric: a second registration under a taken name is a
// programmer error, whichever kind either one is.
TEST(RegistryDeathTest, RegisteringATakenNameDies) {
  Registry r;
  Counter c;
  Histogram h;
  r.RegisterCounter("taken", &c);
  EXPECT_DEATH(r.RegisterHistogram("taken", &h), "HWSTAR_CHECK failed");
  EXPECT_DEATH(r.RegisterCounter("taken", &c), "HWSTAR_CHECK failed");
}

TEST(RegistryTest, DumpTextRendersCountersAndHistograms) {
  Registry r;
  Counter counter;
  counter.Add(7);
  Histogram hist;
  hist.Record(5);
  r.RegisterCounter("some.counter", &counter);
  r.RegisterHistogram("some.hist", &hist);

  const std::string text = r.DumpText();
  EXPECT_NE(text.find("counter some.counter 7\n"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram some.hist count=1 p50=5"), std::string::npos)
      << text;
  // Borrowed metrics are live views: later updates show in the next dump.
  counter.Add(1);
  EXPECT_NE(r.DumpText().find("counter some.counter 8\n"),
            std::string::npos);
}

// A long name (a user-named stream pipeline's histogram, say) once ran
// past a fixed 256-byte line buffer: the line was cut and its newline
// dropped, fusing it with the next line of the scrape.
TEST(RegistryTest, DumpTextKeepsLongNamesWhole) {
  Registry r;
  Counter after;
  after.Add(2);
  Histogram hist;
  hist.Record(9);
  const std::string name = "a." + std::string(300, 'x');
  r.RegisterHistogram(name, &hist);
  r.RegisterCounter("b.after", &after);

  const std::string text = r.DumpText();
  EXPECT_NE(text.find("histogram " + name + " count=1 p50=9 p90=9 p99=9 "
                      "max=9 mean=9.0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\ncounter b.after 2\n"), std::string::npos) << text;
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

// --- Concurrency (the TSan target) -----------------------------------------

// N recorders hammer one histogram while a snapshotter reads it. Under
// TSan this proves the hot path is race-free; the final assertions prove
// no sample is lost or double counted, and quantiles stay within the
// bucket error bound of the exact nearest-rank values.
TEST(HistogramConcurrencyTest, ConcurrentRecordAndSnapshot) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    uint64_t last_count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const HistogramSnapshot s = h.Snapshot();
      // Counts only grow, and never past what's been recorded.
      EXPECT_GE(s.count(), last_count);
      EXPECT_LE(s.count(), kThreads * kPerThread);
      last_count = s.count();
    }
  });

  std::vector<std::thread> recorders;
  std::vector<std::vector<uint64_t>> recorded(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&h, &recorded, t] {
      std::mt19937_64 rng(1000 + t);
      std::lognormal_distribution<double> dist(9.0, 2.0);
      auto& mine = recorded[static_cast<size_t>(t)];
      mine.reserve(kPerThread);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const auto v = static_cast<uint64_t>(dist(rng)) + 1;
        mine.push_back(v);
        h.Record(v);
      }
    });
  }
  for (auto& t : recorders) t.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  std::vector<uint64_t> all;
  uint64_t sum = 0;
  for (const auto& v : recorded) {
    for (uint64_t x : v) {
      all.push_back(x);
      sum += x;
    }
  }
  std::sort(all.begin(), all.end());

  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count(), all.size());  // exact: every sample counted once
  EXPECT_EQ(s.sum(), sum);
  EXPECT_EQ(s.max(), all.back());
  for (double q : {0.5, 0.9, 0.99}) {
    const uint64_t exact = all[NearestRankIndex(q, all.size())];
    const uint64_t approx = s.Quantile(q);
    const double rel = std::abs(static_cast<double>(approx) -
                                static_cast<double>(exact)) /
                       static_cast<double>(exact);
    EXPECT_LE(rel, 0.02) << "q=" << q;
  }
}

// Recorders bump borrowed metrics while they dump and while other
// threads register more: registration and dumping share the registry's
// mutex, the metrics themselves stay lock-free.
TEST(RegistryConcurrencyTest, ConcurrentRegisterRecordAndDump) {
  Registry r;
  Counter shared_counter;
  Histogram shared_hist;
  r.RegisterCounter("shared.counter", &shared_counter);
  r.RegisterHistogram("shared.hist", &shared_hist);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  Counter own[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      r.RegisterCounter("own." + std::to_string(t), &own[t]);
      for (int i = 0; i < kIters; ++i) {
        shared_counter.Inc();
        shared_hist.Record(static_cast<uint64_t>(i));
        own[t].Inc();
        if (i % 256 == 0) (void)r.DumpText();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared_counter.value(), static_cast<uint64_t>(kThreads * kIters));
  EXPECT_EQ(shared_hist.count(), static_cast<uint64_t>(kThreads * kIters));
  EXPECT_EQ(r.size(), static_cast<size_t>(2 + kThreads));
  EXPECT_NE(r.DumpText().find("counter shared.counter " +
                              std::to_string(kThreads * kIters) + "\n"),
            std::string::npos);
}

}  // namespace
}  // namespace hwstar::obs
