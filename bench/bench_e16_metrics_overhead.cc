// E16 -- the observer effect: what recording a latency sample costs. The
// service's original latency recorder took a global mutex per completion
// and kept every sample forever; svc::Service now bumps relaxed atomics on
// a per-thread, cache-line-padded shard of a bounded log-linear histogram
// per phase. This bench measures both on the multi-threaded completion
// path the service actually runs:
//   mutex  -- a faithful replica of the old recorder (mutex + unbounded
//             per-phase vectors, snapshot = copy + sort)
//   obs    -- what Service::Complete does: five obs::Histograms, one per
//             LatencyBreakdown phase, wal only when the request waited
// Four views, because the old recorder loses on more than one axis:
//   1. raw recording throughput vs thread count (on multi-core hardware
//      the mutex line ping-pongs and throughput falls as threads rise;
//      sharded relaxed atomics scale near-linearly);
//   2. recording throughput while a scraper polls the metrics -- the old
//      snapshot copies the unbounded vector *under the recording lock*
//      and then sorts it, stalling completions and burning a core;
//   3. scrape latency as samples accumulate -- O(n log n) and growing
//      for the old recorder, constant microseconds for obs;
//   4. what the bounded histogram gives up for all that: reported
//      quantiles versus exact nearest-rank on a reference distribution
//      (the bucket error bound, <1% at the midpoint), from a fixed
//      few-KB footprint.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "hwstar/common/timer.h"
#include "hwstar/obs/histogram.h"
#include "hwstar/perf/report.h"
#include "hwstar/svc/request.h"

namespace {

using hwstar::WallTimer;
using hwstar::perf::ReportTable;
using hwstar::svc::LatencyBreakdown;

constexpr double kTrialSeconds = 0.4;

/// What a scrape reads per phase, nanoseconds (both arms fill it).
struct PhaseSummary {
  uint64_t count = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
  double mean = 0;
};

/// The old recorder, kept verbatim as the baseline: one mutex around
/// unbounded per-phase sample vectors; snapshots copy and sort.
class MutexRecorder {
 public:
  void Record(const LatencyBreakdown& b) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_[0].push_back(b.admit_wait_nanos);
    samples_[1].push_back(b.batch_wait_nanos);
    samples_[2].push_back(b.exec_nanos);
    samples_[3].push_back(b.total_nanos);
    if (b.wal_nanos != 0) samples_[4].push_back(b.wal_nanos);
  }

  PhaseSummary Snapshot(int phase) const {
    std::vector<uint64_t> sorted;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sorted = samples_[phase];
    }
    PhaseSummary snap;
    if (sorted.empty()) return snap;
    std::sort(sorted.begin(), sorted.end());
    snap.count = sorted.size();
    snap.p50 = sorted[hwstar::obs::NearestRankIndex(0.50, sorted.size())];
    snap.p90 = sorted[hwstar::obs::NearestRankIndex(0.90, sorted.size())];
    snap.p99 = sorted[hwstar::obs::NearestRankIndex(0.99, sorted.size())];
    snap.max = sorted.back();
    double sum = 0;
    for (uint64_t s : sorted) sum += static_cast<double>(s);
    snap.mean = sum / static_cast<double>(sorted.size());
    return snap;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<uint64_t> samples_[5];
};

/// The obs arm: the five phase histograms Service::Complete records into.
class ObsRecorder {
 public:
  void Record(const LatencyBreakdown& b) {
    phases_[0].Record(b.admit_wait_nanos);
    phases_[1].Record(b.batch_wait_nanos);
    phases_[2].Record(b.exec_nanos);
    phases_[3].Record(b.total_nanos);
    if (b.wal_nanos != 0) phases_[4].Record(b.wal_nanos);
  }

  PhaseSummary Snapshot(int phase) const {
    const hwstar::obs::HistogramSnapshot h = phases_[phase].Snapshot();
    PhaseSummary snap;
    snap.count = h.count();
    snap.p50 = h.Quantile(0.50);
    snap.p90 = h.Quantile(0.90);
    snap.p99 = h.Quantile(0.99);
    snap.max = h.max();
    snap.mean = h.mean();
    return snap;
  }

 private:
  hwstar::obs::Histogram phases_[5];
};

LatencyBreakdown MakeBreakdown(uint64_t i) {
  LatencyBreakdown b;
  b.admit_wait_nanos = 1000 + (i % 977);
  b.batch_wait_nanos = 5000 + (i % 4093);
  b.exec_nanos = 20000 + (i % 16381);
  b.total_nanos = b.admit_wait_nanos + b.batch_wait_nanos + b.exec_nanos;
  b.wal_nanos = 0;
  return b;
}

/// `threads` workers call `record` in a tight loop for kTrialSeconds;
/// returns total records per second. If `scrape` is non-null an extra
/// thread invokes it every 5 ms, like a metrics endpoint being polled.
template <typename Recorder, typename Scrape>
double RunTrial(Recorder* recorder, int threads, Scrape* scrape) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads) + 1);
  WallTimer timer;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t n = 0;
      for (uint64_t i = static_cast<uint64_t>(t) << 32;
           !stop.load(std::memory_order_relaxed); ++i, ++n) {
        recorder->Record(MakeBreakdown(i));
      }
      total.fetch_add(n);
    });
  }
  if (scrape != nullptr) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (*scrape)();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  while (timer.ElapsedSeconds() < kTrialSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  return static_cast<double>(total.load()) / timer.ElapsedSeconds();
}

template <typename Recorder>
double RunTrial(Recorder* recorder, int threads) {
  return RunTrial(recorder, threads, static_cast<void (*)()>(nullptr));
}

void ThroughputTable(bool scraped) {
  ReportTable table(
      scraped ? "E16: recording throughput with a 5ms metrics scraper, "
                "mutex recorder vs obs (Mrec/s)"
              : "E16: raw recording throughput, mutex recorder vs obs "
                "(Mrec/s, all phases per record)",
      {"threads", "mutex_mrec_s", "obs_mrec_s", "speedup"});
  const unsigned hc = std::thread::hardware_concurrency();
  for (int threads : {1, 2, 4, 8, 16}) {
    if (static_cast<unsigned>(threads) > std::max(4u, 2 * hc)) break;
    double mutex_rate;
    {
      // Fresh recorder per trial: the mutex baseline's vectors otherwise
      // grow across trials (that unbounded growth is the bug under test).
      MutexRecorder mutex_recorder;
      auto scrape = [&mutex_recorder] {
        for (int phase = 0; phase < 5; ++phase) mutex_recorder.Snapshot(phase);
      };
      mutex_rate = scraped ? RunTrial(&mutex_recorder, threads, &scrape)
                           : RunTrial(&mutex_recorder, threads);
    }
    double obs_rate;
    {
      ObsRecorder obs_recorder;
      auto scrape = [&obs_recorder] {
        for (int phase = 0; phase < 5; ++phase) obs_recorder.Snapshot(phase);
      };
      obs_rate = scraped ? RunTrial(&obs_recorder, threads, &scrape)
                         : RunTrial(&obs_recorder, threads);
    }
    table.AddRow({std::to_string(threads),
                  ReportTable::Num(mutex_rate * 1e-6),
                  ReportTable::Num(obs_rate * 1e-6),
                  ReportTable::Num(obs_rate / mutex_rate)});
  }
  table.Print();
}

void ScrapeLatencyTable() {
  ReportTable table(
      "E16: full 5-phase scrape latency vs accumulated samples "
      "(milliseconds per scrape)",
      {"samples", "mutex_ms", "obs_ms", "ratio"});
  for (size_t n : {size_t{100000}, size_t{1000000}, size_t{4000000}}) {
    MutexRecorder mutex_recorder;
    ObsRecorder obs_recorder;
    for (size_t i = 0; i < n; ++i) {
      const LatencyBreakdown b = MakeBreakdown(i);
      mutex_recorder.Record(b);
      obs_recorder.Record(b);
    }
    WallTimer timer;
    for (int phase = 0; phase < 5; ++phase) mutex_recorder.Snapshot(phase);
    const double mutex_ms = static_cast<double>(timer.ElapsedNanos()) * 1e-6;
    timer.Restart();
    for (int phase = 0; phase < 5; ++phase) obs_recorder.Snapshot(phase);
    const double obs_ms = static_cast<double>(timer.ElapsedNanos()) * 1e-6;
    table.AddRow({std::to_string(n), ReportTable::Num(mutex_ms),
                  ReportTable::Num(obs_ms),
                  ReportTable::Num(mutex_ms / obs_ms)});
  }
  table.Print();
}

void AccuracyTable() {
  // A heavy-tailed reference distribution (lognormal service times).
  std::mt19937_64 rng(1234);
  std::lognormal_distribution<double> dist(11.0, 1.6);
  constexpr size_t kSamples = 1000000;
  std::vector<uint64_t> values;
  values.reserve(kSamples);
  hwstar::obs::Histogram hist;
  for (size_t i = 0; i < kSamples; ++i) {
    const auto v = static_cast<uint64_t>(dist(rng)) + 1;
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  const hwstar::obs::HistogramSnapshot snap = hist.Snapshot();

  ReportTable table(
      "E16: merged-snapshot quantiles vs exact nearest-rank, 1M lognormal "
      "samples",
      {"quantile", "exact_us", "obs_us", "rel_err_pct"});
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const uint64_t exact =
        values[hwstar::obs::NearestRankIndex(q, values.size())];
    const uint64_t approx = snap.Quantile(q);
    const double rel = std::abs(static_cast<double>(approx) -
                                static_cast<double>(exact)) /
                       static_cast<double>(exact);
    char label[16];
    std::snprintf(label, sizeof(label), "p%g", q * 100);
    table.AddRow({label, ReportTable::Num(static_cast<double>(exact) * 1e-3),
                  ReportTable::Num(static_cast<double>(approx) * 1e-3),
                  ReportTable::Num(rel * 100.0)});
  }
  table.Print();

  std::printf(
      "obs histogram footprint: %zu bytes for %zu samples "
      "(%u buckets x %u shards; the exact recorder would hold %zu MB)\n",
      hist.allocated_bytes(), kSamples, hist.layout().num_buckets(),
      hist.shards(), kSamples * sizeof(uint64_t) >> 20);
}

}  // namespace

int main() {
  ThroughputTable(/*scraped=*/false);
  ThroughputTable(/*scraped=*/true);
  ScrapeLatencyTable();
  AccuracyTable();
  return 0;
}
