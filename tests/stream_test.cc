// Tests for hwstar::stream: window math, watermark semantics, windowed
// aggregation and streaming-join bit-identity against offline batch
// computation, backpressure shedding, shutdown races, and metrics
// scraping under load. Registered with LABELS sanitize: the pipeline
// tests exercise the Executor-driven concurrent drain paths worth
// running under TSan.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "hwstar/common/random.h"
#include "hwstar/exec/executor.h"
#include "hwstar/obs/registry.h"
#include "hwstar/stream/join.h"
#include "hwstar/stream/pipeline.h"
#include "hwstar/stream/source.h"
#include "hwstar/stream/stream_batch.h"
#include "hwstar/stream/watermark.h"
#include "hwstar/stream/window.h"
#include "hwstar/tune/tunable.h"

namespace hwstar::stream {
namespace {

// ---------------------------------------------------------------------------
// Window math.

TEST(WindowSpecTest, TumblingFirstStart) {
  const WindowSpec w = WindowSpec::Tumbling(10);
  EXPECT_TRUE(w.tumbling());
  EXPECT_EQ(w.effective_slide(), 10u);
  EXPECT_EQ(w.FirstStart(0), 0u);
  EXPECT_EQ(w.FirstStart(9), 0u);
  EXPECT_EQ(w.FirstStart(10), 10u);
  EXPECT_EQ(w.FirstStart(25), 20u);
}

TEST(WindowSpecTest, SlidingFirstStartCoversAllWindows) {
  const WindowSpec w = WindowSpec::Sliding(10, 5);
  EXPECT_FALSE(w.tumbling());
  // ts = 12 is covered by windows starting at 5 and 10.
  EXPECT_EQ(w.FirstStart(12), 5u);
  // ts = 3 is only covered by the window starting at 0.
  EXPECT_EQ(w.FirstStart(3), 0u);
  // Enumerating upward by slide while start <= ts visits every cover.
  std::vector<uint64_t> starts;
  for (uint64_t s = w.FirstStart(12); s <= 12; s += w.effective_slide()) {
    starts.push_back(s);
  }
  EXPECT_EQ(starts, (std::vector<uint64_t>{5, 10}));
}

TEST(WindowSpecTest, ZeroSlideMeansTumbling) {
  const WindowSpec w{/*size=*/8, /*slide=*/0};
  EXPECT_TRUE(w.tumbling());
  EXPECT_EQ(w.effective_slide(), 8u);
}

// ---------------------------------------------------------------------------
// Watermark tracker.

TEST(WatermarkTest, BoundedOutOfOrderness) {
  WatermarkTracker t(/*lateness_bound=*/10);
  EXPECT_EQ(t.watermark(), 0u);  // nothing observed: no promise
  t.Observe(5);
  EXPECT_EQ(t.watermark(), 0u);  // 5 - 10 saturates at 0
  t.Observe(25);
  EXPECT_EQ(t.watermark(), 15u);
  t.Observe(18);  // out of order but within bound: watermark holds
  EXPECT_EQ(t.watermark(), 15u);
  t.Observe(100);
  EXPECT_EQ(t.watermark(), 90u);
}

TEST(WatermarkTest, ZeroBoundTracksMax) {
  WatermarkTracker t(/*lateness_bound=*/0);
  t.Observe(7);
  EXPECT_EQ(t.watermark(), 7u);
  t.Observe(3);
  EXPECT_EQ(t.watermark(), 7u);
}

// ---------------------------------------------------------------------------
// WindowAggregator unit semantics (single partition, hand-built batches).

StreamBatch MakeBatch(std::vector<std::tuple<uint64_t, int64_t, uint64_t>> rows,
                      uint64_t watermark) {
  StreamBatch b;
  for (const auto& [k, v, ts] : rows) b.Append(k, v, ts);
  b.watermark = watermark;
  return b;
}

TEST(WindowAggregatorTest, LateIsJudgedAgainstEarlierBatchesWatermark) {
  WindowAggregator agg(WindowSpec::Tumbling(10));
  agg.Bind(1);
  std::vector<WindowResult> out;
  uint64_t late = 0;

  // First batch establishes watermark 15; ts=12 rides in the same batch
  // and must NOT be late (it never competes with its own batch's
  // watermark).
  agg.OnBatch(0, MakeBatch({{1, 1, 20}, {1, 1, 12}}, 15), &out, &late);
  EXPECT_EQ(late, 0u);
  // Window [0,10) had no records; watermark 15 closed it silently, and
  // [10,20) stays open.
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(agg.OpenWindows(0), 2u);  // [10,20) and [20,30)

  // Second batch: ts=12 is now behind watermark 15 -> dropped. ts=16 is
  // in-bound.
  late = 0;
  agg.OnBatch(0, MakeBatch({{1, 1, 12}, {1, 1, 16}}, 15), &out, &late);
  EXPECT_EQ(late, 1u);
  EXPECT_TRUE(out.empty());

  // Flush closes the rest. [10,20) holds ts=12 (batch 1, kept) and ts=16
  // (batch 2); the second ts=12 was dropped. [20,30) holds ts=20.
  late = 0;
  agg.OnBatch(0, MakeBatch({}, StreamBatch::kFlushWatermark), &out, &late);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].window_start, 10u);
  EXPECT_EQ(out[0].count, 2u);
  EXPECT_EQ(out[1].window_start, 20u);
  EXPECT_EQ(out[1].count, 1u);
  EXPECT_EQ(agg.OpenWindows(0), 0u);
}

TEST(WindowAggregatorTest, EmptyWindowsEmitNothing) {
  WindowAggregator agg(WindowSpec::Tumbling(10));
  agg.Bind(1);
  std::vector<WindowResult> out;
  // Records only in [0,10) and [90,100); flush must emit exactly those
  // two windows, not the eight empty ones between them.
  agg.OnBatch(0, MakeBatch({{7, 2, 3}, {7, 2, 95}}, 0), &out, nullptr);
  agg.OnBatch(0, MakeBatch({}, StreamBatch::kFlushWatermark), &out, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].window_start, 0u);
  EXPECT_EQ(out[1].window_start, 90u);
}

TEST(WindowAggregatorTest, SlidingRecordCountsInEveryCoveringWindow) {
  WindowAggregator agg(WindowSpec::Sliding(10, 5));
  agg.Bind(1);
  std::vector<WindowResult> out;
  // ts=12 lands in windows [5,15) and [10,20).
  agg.OnBatch(0, MakeBatch({{1, 4, 12}}, 0), &out, nullptr);
  agg.OnBatch(0, MakeBatch({}, StreamBatch::kFlushWatermark), &out, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].window_start, 5u);
  EXPECT_EQ(out[0].sum, 4);
  EXPECT_EQ(out[1].window_start, 10u);
  EXPECT_EQ(out[1].sum, 4);
}

TEST(WindowAggregatorTest, EmissionOrderIsWindowThenKey) {
  WindowAggregator agg(WindowSpec::Tumbling(10));
  agg.Bind(1);
  std::vector<WindowResult> out;
  agg.OnBatch(0, MakeBatch({{9, 1, 1}, {2, 1, 2}, {5, 1, 12}}, 0), &out,
              nullptr);
  agg.OnBatch(0, MakeBatch({}, StreamBatch::kFlushWatermark), &out, nullptr);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].window_start, 0u);
  EXPECT_EQ(out[0].key, 2u);
  EXPECT_EQ(out[1].window_start, 0u);
  EXPECT_EQ(out[1].key, 9u);
  EXPECT_EQ(out[2].window_start, 10u);
  EXPECT_EQ(out[2].key, 5u);
}

// ---------------------------------------------------------------------------
// Pipeline end-to-end: bit-identity against offline batch computation.

/// Collects every emitted window result; thread-safe (partitions emit
/// concurrently).
class CollectWindowsSink : public Sink {
 public:
  void OnWindows(uint32_t /*partition*/,
                 const std::vector<WindowResult>& results) override {
    std::lock_guard<std::mutex> lk(mutex_);
    all_.insert(all_.end(), results.begin(), results.end());
  }

  std::vector<WindowResult> Sorted() {
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<WindowResult> v = all_;
    std::sort(v.begin(), v.end(), [](const WindowResult& a,
                                     const WindowResult& b) {
      return std::tie(a.window_start, a.key) < std::tie(b.window_start, b.key);
    });
    return v;
  }

 private:
  std::mutex mutex_;
  std::vector<WindowResult> all_;
};

/// Collects every row reaching the sink; thread-safe.
class CollectRowsSink : public Sink {
 public:
  void OnBatch(uint32_t /*partition*/, const StreamBatch& batch) override {
    std::lock_guard<std::mutex> lk(mutex_);
    for (size_t i = 0; i < batch.size(); ++i) {
      rows_.emplace_back(batch.keys[i], batch.values[i], batch.event_ts[i]);
    }
  }

  std::vector<std::tuple<uint64_t, int64_t, uint64_t>> Sorted() {
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<std::tuple<uint64_t, int64_t, uint64_t>> v = rows_;
    std::sort(v.begin(), v.end());
    return v;
  }

 private:
  std::mutex mutex_;
  std::vector<std::tuple<uint64_t, int64_t, uint64_t>> rows_;
};

/// Materializes everything a Source would feed the pipeline — the offline
/// side of the bit-identity tests. A second identically-configured source
/// instance produces the exact same rows (deterministic generators), so
/// the reference computation never re-implements timestamp synthesis.
StreamBatch Materialize(Source* source) {
  StreamBatch all;
  StreamBatch chunk;
  while (true) {
    chunk.Clear();
    if (!source->NextBatch(4096, &chunk)) break;
    for (size_t i = 0; i < chunk.size(); ++i) {
      all.Append(chunk.keys[i], chunk.values[i], chunk.event_ts[i]);
    }
  }
  return all;
}

/// Offline windowed sum/count over a materialized stream — the
/// straight-line reference the pipeline must match bit for bit.
std::vector<WindowResult> OfflineWindows(const StreamBatch& rows,
                                         const WindowSpec& spec) {
  std::map<std::pair<uint64_t, uint64_t>, WindowResult> acc;
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint64_t ts = rows.event_ts[i];
    for (uint64_t start = spec.FirstStart(ts); start <= ts;
         start += spec.effective_slide()) {
      WindowResult& r = acc[{start, rows.keys[i]}];
      r.window_start = start;
      r.window_end = start + spec.size;
      r.key = rows.keys[i];
      r.sum += rows.values[i];
      r.count += 1;
    }
  }
  std::vector<WindowResult> out;
  out.reserve(acc.size());
  for (const auto& [k, v] : acc) out.push_back(v);
  return out;  // map order == (window_start, key) order
}

TEST(WindowAggregatorTest, ManyKeysMatchOfflineFold) {
  constexpr uint64_t kRows = 24000;
  constexpr uint64_t kRowsPerTick = 8;  // ~800 rows per 100-tick window
  constexpr uint64_t kKeySpace = 1000;  // repeats, yet hundreds of keys
  constexpr uint64_t kLateness = 16;
  constexpr size_t kBatchRows = 300;
  // The passes replay the rows this much later each: a multiple of every
  // size and slide below, so the second pass's windows are the first's,
  // shifted. (Starting past 0 also gives the first rows their full set of
  // sliding windows.)
  constexpr uint64_t kShift = 10000;
  constexpr uint64_t kMaxKey = ~uint64_t{0};

  for (const WindowSpec spec :
       {WindowSpec::Tumbling(100), WindowSpec::Sliding(100, 25)}) {
    WindowAggregator agg(spec);
    agg.Bind(1);
    uint64_t watermark = 0;  // the aggregator's, mirrored

    // Feeds the rows, event times offset by t0, through partition 0 in
    // batches carrying the pipeline's watermark; the last batch carries
    // `closing` instead. Every 101st row lags 3 * kLateness behind, so it
    // is late once a watermark is up; the rest go to `kept`.
    const auto run_pass = [&](uint64_t t0, uint64_t closing,
                              StreamBatch* kept) {
      Xoshiro256 rng(7);
      WatermarkTracker tracker(kLateness);
      std::vector<WindowResult> out;
      uint64_t late = 0, want_late = 0;
      StreamBatch batch;
      const auto feed = [&](uint64_t batch_watermark) {
        batch.watermark = batch_watermark;
        uint64_t dropped = 0;
        agg.OnBatch(0, batch, &out, &dropped);
        late += dropped;
        watermark = std::max(watermark, batch_watermark);
        batch = StreamBatch();
      };
      for (uint64_t r = 0; r < kRows; ++r) {
        const uint64_t key = r % 97 == 0   ? 0
                             : r % 89 == 0 ? kMaxKey
                                           : rng.NextBounded(kKeySpace);
        const int64_t value = static_cast<int64_t>(rng.NextBounded(1000)) - 500;
        const uint64_t lag =
            r % 101 == 0 ? 3 * kLateness : rng.NextBounded(kLateness / 2);
        const uint64_t tick = r / kRowsPerTick;
        const uint64_t ts = t0 + (tick > lag ? tick - lag : 0);
        batch.Append(key, value, ts);
        tracker.Observe(ts);
        if (watermark > 0 && ts < watermark) {
          ++want_late;
        } else {
          kept->Append(key, value, ts);
        }
        if (batch.size() == kBatchRows) feed(tracker.watermark());
      }
      feed(closing);
      EXPECT_GT(want_late, 0u);
      EXPECT_EQ(late, want_late);
      EXPECT_EQ(agg.OpenWindows(0), 0u);
      return out;
    };

    // First pass: an ordinary watermark past its last window closes
    // everything, leaving every table on the spare list. (A flush is
    // terminal: after it every row is late.)
    StreamBatch kept1, kept2;
    std::vector<WindowResult> first = run_pass(kShift, 3 * kShift / 2, &kept1);
    EXPECT_EQ(first, OfflineWindows(kept1, spec));
    // Second pass on the recycled tables, ended by the flush.
    const std::vector<WindowResult> second =
        run_pass(2 * kShift, StreamBatch::kFlushWatermark, &kept2);
    EXPECT_EQ(second, OfflineWindows(kept2, spec));
    for (WindowResult& r : first) {
      r.window_start += kShift;
      r.window_end += kShift;
    }
    EXPECT_EQ(second, first);

    // The inputs did reach the cases under test: tables that grew, and
    // the extreme keys.
    std::map<uint64_t, size_t> keys_per_window;
    for (const WindowResult& r : second) ++keys_per_window[r.window_start];
    size_t most = 0;
    for (const auto& [start, keys] : keys_per_window) {
      most = std::max(most, keys);
    }
    EXPECT_GT(most, WindowAggregator::kInitialTableSlots);
    const auto has_key = [&](uint64_t key) {
      return std::any_of(second.begin(), second.end(),
                         [&](const WindowResult& r) { return r.key == key; });
    };
    EXPECT_TRUE(has_key(0));
    EXPECT_TRUE(has_key(kMaxKey));
  }
}

/// Folds 8000 in-order rows, keyed `key_of(row, window)`, through one
/// partition's 100-tick tumbling windows (800 rows each) and checks the
/// emission against the offline fold.
template <typename KeyOf>
void ExpectWindowsMatchOfflineFold(KeyOf key_of) {
  const WindowSpec spec = WindowSpec::Tumbling(100);
  WindowAggregator agg(spec);
  agg.Bind(1);
  Xoshiro256 rng(11);
  StreamBatch all, batch;
  std::vector<WindowResult> out;
  for (uint64_t r = 0; r < 8000; ++r) {
    const uint64_t ts = r / 8;
    const uint64_t key = key_of(r, ts / 100);
    const int64_t value = static_cast<int64_t>(rng.NextBounded(1000)) - 500;
    batch.Append(key, value, ts);
    all.Append(key, value, ts);
    if (batch.size() == 300) {
      batch.watermark = ts;
      agg.OnBatch(0, batch, &out, nullptr);
      batch = StreamBatch();
    }
  }
  batch.watermark = StreamBatch::kFlushWatermark;
  agg.OnBatch(0, batch, &out, nullptr);
  EXPECT_EQ(out, OfflineWindows(all, spec));
  EXPECT_EQ(out.size(), 10u * 256u);  // every window holds 256 keys
}

TEST(WindowAggregatorTest, KeysDifferingOnlyInTopByteEmitInKeyOrder) {
  // Seven constant low bytes: the radix sort's one pass is the top byte.
  ExpectWindowsMatchOfflineFold([](uint64_t r, uint64_t /*window*/) {
    return (((r * 167) & 0xFF) << 56) | 0x0012345678ABCDEFull;
  });
}

TEST(WindowAggregatorTest, KeysDifferingOnlyInLowByteEmitInKeyOrder) {
  // Even windows hold keys 0..255, odd ones ~0 - 255..~0: within a window
  // only the low byte varies, and the keys 0 and ~0 both occur.
  ExpectWindowsMatchOfflineFold([](uint64_t r, uint64_t window) {
    const uint64_t high = window % 2 == 0 ? 0 : ~uint64_t{0xFF};
    return high | ((r * 167) & 0xFF);
  });
}

workload::YcsbConfig SmallYcsb() {
  workload::YcsbConfig cfg;
  cfg.record_count = 512;  // few keys -> every window has repeat keys
  cfg.operation_count = 20000;
  cfg.zipf_theta = 0.8;
  cfg.seed = 42;
  return cfg;
}

TEST(PipelineTest, TumblingAggregationMatchesOfflineBatch) {
  EventTimeOptions time;
  time.step = 1;
  time.max_disorder = 64;

  exec::Executor executor(4);
  YcsbSource source(SmallYcsb(), time);
  WindowAggregator agg(WindowSpec::Tumbling(1000));
  CollectWindowsSink sink;

  PipelineOptions opts;
  opts.partitions = 4;
  opts.batch_rows = 512;
  opts.lateness_bound = 64;  // = max_disorder: nothing may drop
  auto pipeline = PipelineBuilder(&executor)
                      .From(&source)
                      .Aggregate(&agg)
                      .To(&sink)
                      .With(opts)
                      .Build();
  pipeline->Run();

  EXPECT_EQ(pipeline->late_dropped(), 0u);
  EXPECT_EQ(pipeline->batches_shed(), 0u);

  YcsbSource reference(SmallYcsb(), time);
  const StreamBatch rows = Materialize(&reference);
  EXPECT_EQ(pipeline->records_processed(), rows.size());
  const std::vector<WindowResult> expected =
      OfflineWindows(rows, WindowSpec::Tumbling(1000));
  EXPECT_EQ(sink.Sorted(), expected);
  EXPECT_EQ(pipeline->windows_emitted(), expected.size());
}

TEST(PipelineTest, SlidingAggregationMatchesOfflineBatch) {
  EventTimeOptions time;
  time.max_disorder = 32;

  exec::Executor executor(3);
  YcsbSource source(SmallYcsb(), time);
  const WindowSpec spec = WindowSpec::Sliding(1200, 400);
  WindowAggregator agg(spec);
  CollectWindowsSink sink;

  PipelineOptions opts;
  opts.partitions = 3;
  opts.batch_rows = 777;  // batch boundary never aligned with windows
  opts.lateness_bound = 32;
  auto pipeline = PipelineBuilder(&executor)
                      .From(&source)
                      .Aggregate(&agg)
                      .To(&sink)
                      .With(opts)
                      .Build();
  pipeline->Run();

  YcsbSource reference(SmallYcsb(), time);
  EXPECT_EQ(sink.Sorted(), OfflineWindows(Materialize(&reference), spec));
  EXPECT_EQ(pipeline->late_dropped(), 0u);
}

TEST(PipelineTest, SinglePartitionMatchesMultiPartition) {
  EventTimeOptions time;
  time.max_disorder = 16;
  const WindowSpec spec = WindowSpec::Tumbling(500);

  std::vector<WindowResult> results[2];
  const uint32_t parts[2] = {1, 7};
  for (int i = 0; i < 2; ++i) {
    exec::Executor executor(4);
    YcsbSource source(SmallYcsb(), time);
    WindowAggregator agg(spec);
    CollectWindowsSink sink;
    PipelineOptions opts;
    opts.partitions = parts[i];
    opts.batch_rows = 256;
    opts.lateness_bound = 16;
    auto pipeline = PipelineBuilder(&executor)
                        .From(&source)
                        .Aggregate(&agg)
                        .To(&sink)
                        .With(opts)
                        .Build();
    pipeline->Run();
    results[i] = sink.Sorted();
  }
  EXPECT_EQ(results[0], results[1]);
}

// ---------------------------------------------------------------------------
// Streaming join: end-to-end identity, batched vs scalar kernels.

/// Build side: orders-like payload per orderkey.
std::pair<std::vector<uint64_t>, std::vector<int64_t>> MakeBuildSide(
    uint64_t n) {
  std::vector<uint64_t> keys;
  std::vector<int64_t> payloads;
  // Cover half the orderkey space so a realistic fraction of probes miss.
  for (uint64_t k = 1; k <= n; k += 2) {
    keys.push_back(k);
    payloads.push_back(static_cast<int64_t>(k * 31 + 7));
  }
  return {keys, payloads};
}

TEST(StreamJoinTest, PipelineJoinMatchesOfflineAndScalarKernel) {
  workload::TpchConfig tpch;
  tpch.scale_factor = 0.002;  // ~12k lineitem rows
  EventTimeOptions time;
  time.max_disorder = 8;

  // Orderkeys run 1..orders*4 in the generator; cover half of them.
  const auto [bkeys, bpayloads] = MakeBuildSide(8000);

  auto run = [&](const StreamJoinOptions& jopts) {
    exec::Executor executor(4);
    LineitemSource source(tpch, LineitemKey::kOrderKey, time);
    StreamTableJoin join(bkeys.data(), bpayloads.data(), bkeys.size(), jopts);
    CollectRowsSink sink;
    PipelineOptions opts;
    opts.partitions = 4;
    opts.batch_rows = 1024;
    opts.lateness_bound = 8;
    auto pipeline = PipelineBuilder(&executor)
                        .From(&source)
                        .Via(&join)
                        .To(&sink)
                        .With(opts)
                        .Build();
    pipeline->Run();
    return sink.Sorted();
  };

  StreamJoinOptions scalar;
  scalar.use_batched_kernels = false;
  scalar.combine = JoinCombine::kSum;
  StreamJoinOptions batched;
  batched.combine = JoinCombine::kSum;
  StreamJoinOptions bloomed;
  bloomed.combine = JoinCombine::kSum;
  bloomed.bloom_prefilter = true;

  const auto scalar_rows = run(scalar);
  const auto batched_rows = run(batched);
  const auto bloomed_rows = run(bloomed);

  // Offline reference: materialize the stream, probe a plain hash map.
  std::unordered_map<uint64_t, int64_t> build;
  for (size_t i = 0; i < bkeys.size(); ++i) build[bkeys[i]] = bpayloads[i];
  LineitemSource reference(tpch, LineitemKey::kOrderKey, time);
  const StreamBatch rows = Materialize(&reference);
  std::vector<std::tuple<uint64_t, int64_t, uint64_t>> expected;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto it = build.find(rows.keys[i]);
    if (it == build.end()) continue;
    expected.emplace_back(rows.keys[i], rows.values[i] + it->second,
                          rows.event_ts[i]);
  }
  std::sort(expected.begin(), expected.end());

  ASSERT_FALSE(expected.empty());
  EXPECT_LT(expected.size(), rows.size());  // some probes missed
  EXPECT_EQ(scalar_rows, expected);
  EXPECT_EQ(batched_rows, expected);
  EXPECT_EQ(bloomed_rows, expected);
}

TEST(StreamJoinTest, JoinIntoWindowAggregationEndToEnd) {
  // Full chain on the Executor: source -> join -> windowed sum -> sink,
  // against the equivalent offline computation.
  workload::TpchConfig tpch;
  tpch.scale_factor = 0.001;
  EventTimeOptions time;
  time.max_disorder = 4;
  const auto [bkeys, bpayloads] = MakeBuildSide(4000);

  exec::Executor executor(2);
  LineitemSource source(tpch, LineitemKey::kOrderKey, time);
  StreamJoinOptions jopts;
  jopts.combine = JoinCombine::kBuildValue;
  StreamTableJoin join(bkeys.data(), bpayloads.data(), bkeys.size(), jopts);
  const WindowSpec spec = WindowSpec::Tumbling(256);
  WindowAggregator agg(spec);
  CollectWindowsSink sink;
  PipelineOptions opts;
  opts.partitions = 2;
  opts.batch_rows = 300;
  opts.lateness_bound = 4;
  auto pipeline = PipelineBuilder(&executor)
                      .From(&source)
                      .Via(&join)
                      .Aggregate(&agg)
                      .To(&sink)
                      .With(opts)
                      .Build();
  pipeline->Run();

  std::unordered_map<uint64_t, int64_t> build;
  for (size_t i = 0; i < bkeys.size(); ++i) build[bkeys[i]] = bpayloads[i];
  LineitemSource ref_source(tpch, LineitemKey::kOrderKey, time);
  const StreamBatch rows = Materialize(&ref_source);
  StreamBatch joined;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto it = build.find(rows.keys[i]);
    if (it != build.end()) {
      joined.Append(rows.keys[i], it->second, rows.event_ts[i]);
    }
  }
  EXPECT_EQ(sink.Sorted(), OfflineWindows(joined, spec));
}

// ---------------------------------------------------------------------------
// Watermark edge cases through the whole pipeline (VectorSource).

TEST(PipelineTest, LateBeyondBoundDropsWithinBoundSurvives) {
  // lateness_bound 10. Batch 1 reaches ts 30 -> watermark 20. Batch 2
  // carries ts 25 (behind max but >= watermark: kept) and ts 5 (behind
  // watermark: dropped).
  std::vector<StreamBatch> batches;
  batches.push_back(MakeBatch({{1, 1, 10}, {1, 1, 30}}, 0));
  batches.push_back(MakeBatch({{1, 1, 25}, {1, 1, 5}}, 0));
  VectorSource source(std::move(batches));

  exec::Executor executor(2);
  WindowAggregator agg(WindowSpec::Tumbling(100));
  CollectWindowsSink sink;
  PipelineOptions opts;
  opts.partitions = 1;
  opts.lateness_bound = 10;
  auto pipeline = PipelineBuilder(&executor)
                      .From(&source)
                      .Aggregate(&agg)
                      .To(&sink)
                      .With(opts)
                      .Build();
  pipeline->Run();

  EXPECT_EQ(pipeline->late_dropped(), 1u);
  const auto results = sink.Sorted();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].window_start, 0u);
  EXPECT_EQ(results[0].count, 3u);  // 10, 30, 25 survive; 5 dropped
}

TEST(PipelineTest, WatermarkStallEmitsNothingUntilFlush) {
  // All records share one timestamp below the bound: the watermark never
  // leaves 0, so no window can close before the flush.
  auto make_batches = [] {
    std::vector<StreamBatch> batches;
    for (int i = 0; i < 8; ++i) {
      batches.push_back(MakeBatch({{1, 1, 5}, {2, 1, 5}}, 0));
    }
    return batches;
  };

  {
    // Without flush: stalled watermark -> zero emissions.
    VectorSource source(make_batches());
    exec::Executor executor(2);
    WindowAggregator agg(WindowSpec::Tumbling(10));
    CollectWindowsSink sink;
    PipelineOptions opts;
    opts.partitions = 2;
    opts.lateness_bound = 100;
    opts.flush_on_end = false;
    auto pipeline = PipelineBuilder(&executor)
                        .From(&source)
                        .Aggregate(&agg)
                        .To(&sink)
                        .With(opts)
                        .Build();
    pipeline->Run();
    EXPECT_EQ(pipeline->windows_emitted(), 0u);
    EXPECT_TRUE(sink.Sorted().empty());
  }
  {
    // With flush: both keys' [0,10) windows emit.
    VectorSource source(make_batches());
    exec::Executor executor(2);
    WindowAggregator agg(WindowSpec::Tumbling(10));
    CollectWindowsSink sink;
    PipelineOptions opts;
    opts.partitions = 2;
    opts.lateness_bound = 100;
    auto pipeline = PipelineBuilder(&executor)
                        .From(&source)
                        .Aggregate(&agg)
                        .To(&sink)
                        .With(opts)
                        .Build();
    pipeline->Run();
    const auto results = sink.Sorted();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].key, 1u);
    EXPECT_EQ(results[0].count, 8u);
    EXPECT_EQ(results[1].key, 2u);
    EXPECT_EQ(results[1].count, 8u);
  }
}

// A pipeline destroyed as soon as Run() returns must not race its last
// drain task, which may still be on its way out of the pipeline after the
// drain counters reach zero. Short multi-partition runs on one shared
// executor, each destroyed at once, a few hundred times: under TSan the
// race shows as a use of the destroyed done mutex.
TEST(PipelineTest, DestroyRightAfterDrainLoop) {
  exec::Executor executor(4);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<StreamBatch> batches;
    for (uint64_t b = 0; b < 4; ++b) {
      batches.push_back(MakeBatch(
          {{b, 1, 10 * b}, {b + 4, 1, 10 * b + 1}, {b + 8, 1, 10 * b + 2}},
          10 * b));
    }
    VectorSource source(std::move(batches));
    WindowAggregator agg(WindowSpec::Tumbling(10));
    CollectWindowsSink sink;
    PipelineOptions opts;
    opts.partitions = 4;
    opts.lateness_bound = 100;
    auto pipeline = PipelineBuilder(&executor)
                        .From(&source)
                        .Aggregate(&agg)
                        .To(&sink)
                        .With(opts)
                        .Build();
    pipeline->Run();
    ASSERT_EQ(pipeline->records_processed(), 12u) << "iteration " << iter;
    pipeline.reset();
    ASSERT_EQ(sink.Sorted().size(), 12u) << "iteration " << iter;
  }
}

// ---------------------------------------------------------------------------
// Backpressure.

/// A sink slow enough to back the partition queues up.
class SlowSink : public Sink {
 public:
  void OnBatch(uint32_t /*partition*/, const StreamBatch& batch) override {
    rows_.fetch_add(batch.size(), std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> rows_{0};
};

TEST(PipelineTest, DropOldestShedsUnderPressureAndCompletes) {
  workload::YcsbConfig cfg;
  cfg.record_count = 1024;
  cfg.operation_count = 50000;
  cfg.seed = 3;
  EventTimeOptions time;

  exec::Executor executor(2);
  YcsbSource source(cfg, time);
  SlowSink sink;
  PipelineOptions opts;
  opts.partitions = 1;
  opts.batch_rows = 128;  // ~390 batches against a ~1ms/batch sink
  opts.max_inflight = 2;
  opts.backpressure = BackpressurePolicy::kDropOldest;
  auto pipeline = PipelineBuilder(&executor)
                      .From(&source)
                      .To(&sink)
                      .With(opts)
                      .Build();
  pipeline->Run();

  EXPECT_GT(pipeline->batches_shed(), 0u);
  // Shed + processed accounts for every accepted record-batch; nothing
  // hangs and nothing is double-counted.
  EXPECT_LT(pipeline->records_processed(), cfg.operation_count);
  EXPECT_EQ(sink.rows(), pipeline->records_processed());
}

TEST(PipelineTest, BlockingBackpressureLosesNothing) {
  workload::YcsbConfig cfg;
  cfg.record_count = 256;
  cfg.operation_count = 4000;
  cfg.seed = 5;

  exec::Executor executor(2);
  YcsbSource source(cfg, EventTimeOptions{});
  SlowSink sink;
  PipelineOptions opts;
  opts.partitions = 2;
  opts.batch_rows = 64;
  opts.max_inflight = 1;  // worst case: pump blocks on every batch
  auto pipeline = PipelineBuilder(&executor)
                      .From(&source)
                      .To(&sink)
                      .With(opts)
                      .Build();
  pipeline->Run();
  EXPECT_EQ(pipeline->batches_shed(), 0u);
  EXPECT_EQ(pipeline->records_processed(), cfg.operation_count);
}

// ---------------------------------------------------------------------------
// Shutdown races and metrics under load (the TSan targets).

TEST(PipelineTest, StopRacesInFlightEmission) {
  // Stop() from another thread while Run() pumps and partitions emit;
  // under TSan this exercises pump/drain/stop interleavings. Run once
  // per iteration to vary the race window.
  for (int iter = 0; iter < 4; ++iter) {
    workload::YcsbConfig cfg;
    cfg.record_count = 512;
    cfg.operation_count = 200000;
    cfg.seed = 11 + static_cast<uint64_t>(iter);
    EventTimeOptions time;
    time.max_disorder = 32;

    exec::Executor executor(4);
    YcsbSource source(cfg, time);
    WindowAggregator agg(WindowSpec::Tumbling(64));
    CollectWindowsSink sink;
    PipelineOptions opts;
    opts.partitions = 4;
    opts.batch_rows = 256;
    opts.lateness_bound = 32;
    auto pipeline = PipelineBuilder(&executor)
                        .From(&source)
                        .Aggregate(&agg)
                        .To(&sink)
                        .With(opts)
                        .Build();

    std::thread stopper([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(200 * iter));
      pipeline->Stop();
    });
    pipeline->Run();
    stopper.join();
    // Run() returned: every accepted batch is processed or discarded,
    // and destroying the pipeline (end of scope) must be safe.
  }
}

TEST(PipelineTest, MetricsScrapeUnderLoad) {
  workload::YcsbConfig cfg;
  cfg.record_count = 512;
  cfg.operation_count = 100000;
  cfg.seed = 21;
  EventTimeOptions time;
  time.max_disorder = 16;

  exec::Executor executor(4);
  YcsbSource source(cfg, time);
  WindowAggregator agg(WindowSpec::Tumbling(128));
  CollectWindowsSink sink;
  PipelineOptions opts;
  opts.partitions = 4;
  opts.batch_rows = 128;
  opts.lateness_bound = 16;
  opts.name = "scrape_me";
  auto pipeline = PipelineBuilder(&executor)
                      .From(&source)
                      .Aggregate(&agg)
                      .To(&sink)
                      .With(opts)
                      .Build();

  obs::Registry registry;
  pipeline->RegisterMetrics(&registry);

  std::atomic<bool> done{false};
  std::string last_dump;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      last_dump = registry.DumpText();
    }
    last_dump = registry.DumpText();
  });
  pipeline->Run();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_NE(last_dump.find("stream.scrape_me.batches"), std::string::npos);
  EXPECT_NE(last_dump.find("stream.scrape_me.records"), std::string::npos);
  EXPECT_NE(last_dump.find("stream.scrape_me.windows_emitted"),
            std::string::npos);
  EXPECT_NE(last_dump.find("stream.scrape_me.emit_latency_ns"),
            std::string::npos);
  EXPECT_GT(pipeline->windows_emitted(), 0u);
  EXPECT_GT(pipeline->emit_latency_histogram().count(), 0u);
}

// ---------------------------------------------------------------------------
// Zero pipeline options resolve against the tune defaults.

TEST(PipelineBuilderTest, ZeroOptionsResolveToHwDefaults) {
  tune::Registry::Global().ResetAll();  // reset process knobs
  exec::Executor executor(2);
  StreamBatch b = MakeBatch({{1, 1, 1}}, 0);
  VectorSource source({b});
  auto pipeline = PipelineBuilder(&executor).From(&source).Build();
  EXPECT_EQ(pipeline->partitions(), 2u);  // executor worker count
  pipeline->Run();
  EXPECT_EQ(pipeline->records_processed(), 1u);
}

}  // namespace
}  // namespace hwstar::stream
